// Command perfbench is the repository's same-host benchmark: a layer
// ledger over three workloads — the Figures 9-11 sweep, a live 16-core
// SNUG run and the scaling study. With -trace 0 it times each workload's
// body end to end, untraced; with -trace 1 it re-runs the workload's cells
// with every layer timed from outside and prints where the host time goes.
// Every run checks its results against pinned digests (or, at a
// non-default seed, against itself). The last line of standard output is
// one JSON object; see README.md for the metrics and how to run an A/B.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fig9-c1c3 --seed 1 --seconds 35 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"snug/internal/config"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics in print order.
type report struct {
	names     []string
	metrics   map[string]metric
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name string, value float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// count adds simulations attempted and failed.
func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *report) result() result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// print writes the metrics one per line, by name with unit.
func (r *report) print(w io.Writer, workload string) {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%s %-34s %14.6g %s\n", workload, n, m.Value, m.Unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%s %-34s %14.6g ratio (%d of %d simulations)\n", workload, "failed_frac", frac, r.failed, r.attempted)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, runs the selected workloads and returns the exit code:
// 0 when every result was produced (correct or not — correctness is in the
// JSON), 1 when the benchmark itself could not run or a traced run failed
// a fidelity check, 2 on bad flags.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: fig9-c1c3, live16-snug, scale-c1, or all")
	seed := fs.Uint64("seed", config.Default().Seed, "base seed; the pinned digests hold at the default")
	seconds := fs.Float64("seconds", 35, "how long the untraced measurement repeats the workload body")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	workdir := fs.String("workdir", ".bench_build/work", "directory for temporary checkpoint stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "perfbench: want -seconds > 0, -trace 0 or 1, and no positional arguments")
		return 2
	}
	ws := allWorkloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	all := newReport()
	var last result
	for _, w := range ws {
		fmt.Fprintf(stdout, "== %s (seed %d, trace %d): %s\n", w.name, *seed, *traceMode, w.why)
		var rep *report
		var err error
		if *traceMode == 1 {
			rep, err = measureLayers(ctx, w, *seed, *workdir, stdout)
		} else {
			rep, err = measureEndToEnd(ctx, w, *seed, *seconds, *workdir, stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		rep.print(stdout, w.name)
		last = rep.result()
		all.count(rep.attempted, rep.failed)
		for _, n := range rep.names {
			m := rep.metrics[n]
			all.add(w.name+"/"+n, m.Value, m.Unit)
		}
	}
	if len(ws) > 1 {
		last = all.result()
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
