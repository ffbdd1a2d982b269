package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/experiments"
	"snug/internal/schemes"
	"snug/internal/sweep"
	"snug/internal/workloads"
)

// cell is one workload-combination point of a workload: the system it
// runs on, seeded as the sweep engine seeds it, and the schemes that run
// on it. Every scheme of a cell sees the same instruction streams.
type cell struct {
	cfg     config.System
	name    string // combo name; result keys are name/label
	benches []string
	labels  []string // canonical scheme specs, the L2P baseline first
}

func (c cell) key(label string) string { return c.name + "/" + label }

// workload is one benchmark workload.
type workload struct {
	name   string
	why    string
	cycles int64
	// cells lists the runs the workload makes at a base seed, in the order
	// the sweep engine dispatches them.
	cells func(seed uint64) ([]cell, error)
	// sweep runs the whole workload through internal/experiments, which
	// replays recorded streams the way users run it. It is nil for
	// live16-snug, whose body is one system's run on live generators.
	sweep func(ctx context.Context, w *workload, base config.System, store string, progress func(sweep.Progress)) error
}

// replayed reports whether the workload's runs replay recorded streams.
func (w *workload) replayed() bool { return w.sweep != nil }

// setUp does the workload's set-up: everything before its first simulated
// cycle. It returns the body to time.
func (w *workload) setUp(seed uint64, dir string) (*body, error) {
	if w.replayed() {
		return startSweep(w, seed, dir)
	}
	return startLive(w, seed)
}

// body is one prepared instance of a workload's timed part.
type body struct {
	cells []cell
	// run is the timed part. A sweep records each job's finish in done.
	run        func(ctx context.Context) error
	done       []completion
	failedJobs int // failed jobs the sweep's progress stream reported
	// results returns every run's result, keyed by cell key, once run has
	// returned; missing counts the runs that produced none.
	results func() (res map[string]cmp.RunResult, missing int, err error)
	store   string // the sweep's checkpoint store ("" for live16-snug)
	cleanup func()
}

// sims is the number of simulations one body runs.
func (b *body) sims() int {
	n := 0
	for _, c := range b.cells {
		n += len(c.labels)
	}
	return n
}

// order lists every run's key in dispatch order.
func (b *body) order() []string {
	var keys []string
	for _, c := range b.cells {
		for _, l := range c.labels {
			keys = append(keys, c.key(l))
		}
	}
	return keys
}

// workers is the simulation goroutine bound for every workload: one per
// host CPU.
var workers = runtime.NumCPU()

// liveMix is live16-snug's 16-core mix: four copies each of the golden
// test's benchmarks, one per class, as internal/bench's 16-core benchmark
// builds it.
var liveMix = func() []string {
	var mix []string
	for _, b := range []string{"ammp", "parser", "swim", "mesa"} {
		mix = append(mix, b, b, b, b)
	}
	return mix
}()

// evalLabels are the runs experiments.Evaluate makes per combo with every
// scheme selected: the L2P baseline, L2S, CC at each spill probability,
// DSR and SNUG.
var evalLabels = func() []string {
	labels := []string{"L2P", "L2S"}
	for _, pct := range experiments.CCPercents {
		labels = append(labels, schemes.MustParse(fmt.Sprintf("CC(%d%%)", pct)).String())
	}
	return append(labels, "DSR", "SNUG")
}()

// The Table 8 classes fig9-c1c3 and scale-c1 cover, and scale-c1's core
// counts.
var (
	fig9Classes  = []string{"C1", "C3"}
	scaleClasses = []string{"C1"}
	scaleWidths  = []int{8, 16}
)

var allWorkloads = []*workload{
	{
		name:   "fig9-c1c3",
		why:    "the Figures 9-11 sweep: replay decode, all five scheme families, the stream cache and the store under load",
		cycles: 1_200_000,
		cells: func(seed uint64) ([]cell, error) {
			return comboCells(config.TestScale(), seed, fig9Classes, evalLabels)
		},
		sweep: func(ctx context.Context, w *workload, base config.System, store string, progress func(sweep.Progress)) error {
			_, err := experiments.Evaluate(ctx, experiments.Options{
				Cfg: base, RunCycles: w.cycles, Parallelism: workers,
				Classes: fig9Classes, Checkpoint: store, Progress: progress,
			})
			return err
		},
	},
	{
		name:   "live16-snug",
		why:    "one live 16-core SNUG run: generator, 16-core bus calendar and retrieval broadcasts; no replay, cache or sweep",
		cycles: 2_400_000,
		cells: func(seed uint64) ([]cell, error) {
			cfg, err := config.TestScaleN(16)
			if err != nil {
				return nil, err
			}
			cfg.Seed = seed
			return []cell{{cfg: cfg, name: "16xmix", benches: liveMix, labels: []string{"SNUG"}}}, nil
		},
	},
	{
		name:   "scale-c1",
		why:    "the scaling study at 8 and 16 cores: the only workload that runs the epoch engine and CPU budget as users get them",
		cycles: 1_200_000,
		cells: func(seed uint64) ([]cell, error) {
			var out []cell
			for _, n := range scaleWidths {
				cfg, err := config.WithCores(config.TestScale(), n)
				if err != nil {
					return nil, err
				}
				cells, err := comboCells(cfg, seed, scaleClasses, []string{"L2P", "SNUG"})
				if err != nil {
					return nil, err
				}
				out = append(out, cells...)
			}
			return out, nil
		},
		sweep: func(ctx context.Context, w *workload, base config.System, store string, progress func(sweep.Progress)) error {
			_, err := experiments.ScalingStudy(ctx, experiments.ScalingOptions{
				BaseCfg: base, CoreCounts: scaleWidths, RunCycles: w.cycles, Parallelism: workers,
				Classes: scaleClasses, Schemes: []string{"SNUG"}, Checkpoint: store, Progress: progress,
			})
			return err
		},
	},
}

// comboCells lists the scale-out combos of the given classes at cfg's
// width, each seeded as the sweep engine seeds its jobs.
func comboCells(cfg config.System, seed uint64, classes, labels []string) ([]cell, error) {
	combos, err := workloads.ScaleOut(cfg.Cores)
	if err != nil {
		return nil, err
	}
	var out []cell
	for _, class := range classes {
		for _, combo := range combos {
			if combo.Class != class {
				continue
			}
			c := cfg
			c.Seed = sweep.JobSeed(seed, combo.Name)
			out = append(out, cell{cfg: c, name: combo.Name, benches: combo.Cores, labels: labels})
		}
	}
	return out, nil
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// firstSystem builds the first cell's generators and system, the set-up a
// run pays before its first simulated cycle.
func firstSystem(c cell, cycles int64) (*cmp.System, error) {
	streams, err := cmp.WorkloadStreams(c.cfg, c.benches, cmp.PhaseRefs(cycles))
	if err != nil {
		return nil, err
	}
	return cmp.NewSystem(c.cfg, c.labels[0], streams)
}

// startLive prepares live16-snug: one cmp.RunWorkload, split so that
// building the generators and the system is set-up and the run is the
// body.
func startLive(w *workload, seed uint64) (*body, error) {
	cells, err := w.cells(seed)
	if err != nil {
		return nil, err
	}
	sys, err := firstSystem(cells[0], w.cycles)
	if err != nil {
		return nil, err
	}
	var res cmp.RunResult
	return &body{
		cells: cells,
		run: func(context.Context) error {
			res = sys.Run(w.cycles)
			return nil
		},
		results: func() (map[string]cmp.RunResult, int, error) {
			return map[string]cmp.RunResult{cells[0].key(cells[0].labels[0]): res}, 0, nil
		},
		cleanup: func() {},
	}, nil
}

// startSweep prepares a sweep workload: the configs and combos, the first
// cell's generators and system, and a fresh checkpoint store directory.
// The body is experiments.Evaluate or experiments.ScalingStudy with replay
// on and one worker per CPU.
func startSweep(w *workload, seed uint64, dir string) (*body, error) {
	cells, err := w.cells(seed)
	if err != nil {
		return nil, err
	}
	if _, err := firstSystem(cells[0], w.cycles); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	b := &body{cells: cells, store: filepath.Join(tmp, "sweep.json"), cleanup: func() { os.RemoveAll(tmp) }}
	progress := func(p sweep.Progress) {
		if p.Key != "" {
			b.done = append(b.done, completion{key: p.Key, at: p.Elapsed})
		}
		b.failedJobs = p.Failed
	}
	base := config.TestScale()
	base.Seed = seed
	b.run = func(ctx context.Context) error { return w.sweep(ctx, w, base, b.store, progress) }
	b.results = func() (map[string]cmp.RunResult, int, error) {
		st, err := sweep.OpenStore(b.store)
		if err != nil {
			return nil, 0, err
		}
		defer st.Close()
		res := make(map[string]cmp.RunResult)
		missing := 0
		for _, key := range b.order() {
			if r, ok := st.Get(key); ok {
				res[key] = r
			} else {
				missing++
			}
		}
		return res, missing, nil
	}
	return b, nil
}
