package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"snug/internal/cmp"
)

// minSetups is how many set-ups an end-to-end run times; setup_s is their
// median.
const minSetups = 51

// bodyOutcome is what one body cost the host and whether its results
// were right.
type bodyOutcome struct {
	wall, cpu time.Duration
	rssMB     float64
	allocMB   float64 // heap allocated during the body
	gcs       uint32  // garbage collections during the body

	results   map[string]cmp.RunResult
	attempted int
	failed    int
	instrs    int64
}

// runBody runs b's timed part and checks its results.
func runBody(ctx context.Context, b *body, dc *digestChecker, log io.Writer) (out bodyOutcome, err error) {
	if !resetPeakRSS() {
		fmt.Fprintln(log, "note: peak RSS could not be reset; peak_rss_mb is the process peak")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	runErr := b.run(ctx)
	out.wall = time.Since(t0)
	out.cpu = cpuTime() - c0
	out.rssMB = peakRSSMB()
	runtime.ReadMemStats(&m1)
	out.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	out.gcs = m1.NumGC - m0.NumGC
	if ctx.Err() != nil {
		return out, ctx.Err()
	}
	out.attempted = b.sims()
	if runErr != nil {
		fmt.Fprintln(log, "FAIL body:", runErr)
	}
	res, missing, err := b.results()
	if err != nil {
		return out, fmt.Errorf("read results: %w", err)
	}
	out.results = res
	switch {
	case missing > 0:
		fmt.Fprintf(log, "FAIL %d of %d runs produced no result\n", missing, out.attempted)
		out.failed = out.attempted
	case runErr != nil || !dc.check(resultsDigest(res), log):
		out.failed = out.attempted
	}
	for _, r := range res {
		for _, c := range r.Cores {
			out.instrs += c.Instructions
		}
	}
	return out, nil
}

// measureEndToEnd times w's body, untraced, repeating set-up and body for
// about seconds, and reports the medians.
func measureEndToEnd(ctx context.Context, w *workload, seed uint64, seconds float64, dir string, log io.Writer) (*report, error) {
	rep := newReport()
	dc := &digestChecker{workload: w.name, seed: seed}
	var wall, cpu, mips, setup, rss []float64
	var first map[string]cmp.RunResult
	var cells []cell
	start := time.Now()
	for {
		t0 := time.Now()
		b, err := w.setUp(seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		lastSetup := time.Since(t0).Seconds()
		out, err := runBody(ctx, b, dc, log)
		b.cleanup()
		if err != nil {
			return nil, err
		}
		rep.count(out.attempted, out.failed)
		if first == nil {
			first, cells = out.results, b.cells
		}
		wall = append(wall, out.wall.Seconds())
		cpu = append(cpu, out.cpu.Seconds())
		rss = append(rss, out.rssMB)
		mips = append(mips, float64(out.instrs)/out.wall.Seconds()/1e6)
		// Start another body only if it should end within the budget.
		if time.Since(start).Seconds()+median(wall)+lastSetup > seconds {
			break
		}
	}
	// Set-ups are timed apart from the bodies, from a collected heap, so
	// that a body's garbage does not land in them.
	runtime.GC()
	for len(setup) < minSetups {
		t0 := time.Now()
		b, err := w.setUp(seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		b.cleanup()
	}
	rep.count(sanityChecks(w, seed, cells, first, log))
	fmt.Fprintf(log, "%s: %d bodies, %d set-ups\n", w.name, len(wall), len(setup))
	rep.add("wall_s", median(wall), "s")
	rep.add("cpu_s", median(cpu), "s")
	rep.add("sim_mips", median(mips), "Minstr/s")
	rep.add("setup_s", median(setup), "s")
	rep.add("peak_rss_mb", median(rss), "MB")
	return rep, nil
}
