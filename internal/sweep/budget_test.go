package sweep

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/cpubudget"
)

// budgetJobs builds n real simulation jobs on a 4-core system. When meet is
// positive, each job first waits (bounded) until meet jobs have started, so
// a sweep with room for meet concurrent jobs is sure to reach that many.
func budgetJobs(t *testing.T, n, meet int) []Job {
	t.Helper()
	base := config.TestScale()
	bench := []string{"ammp", "parser", "swim", "mesa"}
	var started atomic.Int32
	met := make(chan struct{})
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Key: fmt.Sprintf("budget-%02d", i),
			Run: func(seed uint64) (cmp.RunResult, error) {
				if meet > 0 {
					if started.Add(1) == int32(meet) {
						close(met)
					}
					select {
					case <-met:
					case <-time.After(5 * time.Second):
					}
				}
				cfg := base
				cfg.Seed = seed
				return cmp.RunWorkload(cfg, "SNUG", bench, 50_000)
			},
		}
	}
	return jobs
}

// TestSweepCPUBudgetNeverExceeded pins the budget rule: with more sweep
// workers than GOMAXPROCS, the number of concurrent simulations (the token
// pool's high-water mark) reaches GOMAXPROCS but never exceeds it, and
// results are identical at every Parallelism.
func TestSweepCPUBudgetNeverExceeded(t *testing.T) {
	const procs = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	cpubudget.ResetPeak()
	wide, err := Run(context.Background(), Options{Parallelism: 4, BaseSeed: 7}, budgetJobs(t, 6, procs))
	if err != nil {
		t.Fatal(err)
	}
	if p := cpubudget.Peak(); p != procs {
		t.Errorf("peak concurrent simulations = %d with 4 workers, want GOMAXPROCS = %d", p, procs)
	}

	for _, par := range []int{1, 3} {
		got, err := Run(context.Background(), Options{Parallelism: par, BaseSeed: 7}, budgetJobs(t, 6, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wide) {
			t.Errorf("results differ between Parallelism %d and 4; the budget must change scheduling only", par)
		}
	}
}
