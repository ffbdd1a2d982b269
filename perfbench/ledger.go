package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"snug/internal/cmp"
	"snug/internal/cpubudget"
	"snug/internal/isa"
	"snug/internal/schemes"
	"snug/internal/sweep"
	"snug/internal/trace"
)

// families are the scheme families whose controller time is reported
// apart.
var families = []string{"L2P", "L2S", "CC", "DSR", "SNUG"}

// ledger accumulates a traced pass: the host time of every layer,
// measured from outside, with the work each did.
type ledger struct {
	untraced, traced time.Duration // Σ single-goroutine run time, without and with tracing

	decode           time.Duration // the decode the traced runs did (replay or generator)
	replay           time.Duration
	replayN          int64
	gen              time.Duration
	genN             int64
	record           time.Duration
	recordN, recordB int64

	core      time.Duration // core-only runs minus their replay decode
	committed int64
	l1        time.Duration
	accesses  int64

	ctrl        spans
	spanCost    time.Duration // one empty span, subtracted per controller span
	familyTime  map[string]time.Duration
	familyCount map[string]int64
	runs        int // traced runs
	sims        int // simulations the pass ran, traced or not
}

// ceilBatch rounds an instruction count up to the core model's 256-entry
// decode-ahead batches: what a replayed core consumes to commit n.
func ceilBatch(n int64) int64 { return (n + 255) / 256 * 256 }

// checkDigest fails unless got reproduces the untraced result for key.
func checkDigest(key string, got cmp.RunResult, untraced map[string]cmp.RunResult) error {
	want, ok := untraced[key]
	if !ok {
		return fmt.Errorf("%s: no untraced result", key)
	}
	if g, w := runDigest(got), runDigest(want); g != w {
		return fmt.Errorf("%s: digest %s, untraced %s", key, g, w)
	}
	return nil
}

// addSpans folds one traced run's controller spans into the ledger.
func (l *ledger) addSpans(label string, s *spans) {
	l.ctrl.access += s.access
	l.ctrl.writeback += s.writeback
	l.ctrl.tick += s.tick
	l.ctrl.nAccess += s.nAccess
	l.ctrl.nWriteback += s.nWriteback
	l.ctrl.nTick += s.nTick
	f := schemes.MustParse(label).Family
	l.familyTime[f] += s.access
	l.familyCount[f] += s.nAccess
	l.runs++
}

// tracedRun runs one cell under scheme label with the span controller and
// checks the result against the untraced one.
func (l *ledger) tracedRun(w *workload, c cell, label string, streams []isa.Stream, untraced map[string]cmp.RunResult) (cmp.RunResult, *spans, error) {
	s := &spans{}
	armSpans(s)
	res, d, err := timedRun(c.cfg, tracedFamily+"("+label+")", streams, w.cycles)
	if err != nil {
		return res, nil, err
	}
	if err := checkDigest(c.key(label), res, untraced); err != nil {
		return res, nil, fmt.Errorf("traced run: %w", err)
	}
	l.sims++
	l.traced += d
	l.addSpans(label, s)
	return res, s, nil
}

// addCore folds one core's isolated layers into the ledger.
func (l *ledger) addCore(cl coreLayers, cr cmp.CoreResult) {
	l.replay += cl.replay
	l.replayN += cl.replayN
	l.core += cl.core - cl.replay
	l.committed += cr.Instructions
	l.l1 += cl.l1
	l.accesses += cl.accesses
}

// replayedCell traces one cell of a replayed workload: record its streams
// to the length the untraced runs consumed, time the generator alone, run
// every scheme untraced and traced on one goroutine, and isolate each
// traced run's cores.
func (l *ledger) replayedCell(w *workload, c cell, untraced map[string]cmp.RunResult, iso *isolator) error {
	gens, err := cmp.WorkloadStreams(c.cfg, c.benches, cmp.PhaseRefs(w.cycles))
	if err != nil {
		return err
	}
	recs := trace.RecordAll(gens)
	defer trace.RecycleAll(recs)
	for i, rec := range recs {
		var need int64
		for _, label := range c.labels {
			need = max(need, ceilBatch(untraced[c.key(label)].Cores[i].Instructions))
		}
		t := time.Now()
		rec.Record(need)
		l.record += time.Since(t)
		l.recordN += rec.Len()
		l.recordB += rec.Bytes()
	}
	fresh, err := cmp.WorkloadStreams(c.cfg, c.benches, cmp.PhaseRefs(w.cycles))
	if err != nil {
		return err
	}
	for i, rec := range recs {
		l.gen += genDecode(fresh[i], rec.Len())
		l.genN += rec.Len()
	}
	for _, label := range c.labels {
		res, d, err := timedRun(c.cfg, label, trace.Replays(recs), w.cycles)
		if err != nil {
			return err
		}
		l.sims++
		if err := checkDigest(c.key(label), res, untraced); err != nil {
			return fmt.Errorf("serial re-run: %w", err)
		}
		l.untraced += d
	}
	for _, label := range c.labels {
		streams := trace.Replays(recs)
		res, s, err := l.tracedRun(w, c, label, streams, untraced)
		if err != nil {
			return err
		}
		for i, cr := range res.Cores {
			cl, err := iso.isolate(recs[i], i, cr, s.lat[i])
			if err != nil {
				return fmt.Errorf("%s: %w", c.key(label), err)
			}
			if consumed := streams[i].(*trace.Replay).Pos(); cl.replayN != consumed {
				return fmt.Errorf("%s: core %d: isolated decode consumed %d instructions, the run %d",
					c.key(label), i, cl.replayN, consumed)
			}
			l.decode += cl.replay
			l.addCore(cl, cr)
		}
	}
	return nil
}

// liveCell traces live16-snug's run: the traced run decodes live
// generators; each core's stream is then recorded so the isolated layers
// can replay it.
func (l *ledger) liveCell(w *workload, c cell, untraced map[string]cmp.RunResult, untracedWall time.Duration, iso *isolator) error {
	label := c.labels[0]
	gens, err := cmp.WorkloadStreams(c.cfg, c.benches, cmp.PhaseRefs(w.cycles))
	if err != nil {
		return err
	}
	counted := make([]*countingStream, len(gens))
	streams := make([]isa.Stream, len(gens))
	for i, g := range gens {
		counted[i] = &countingStream{Stream: g}
		streams[i] = counted[i]
	}
	res, s, err := l.tracedRun(w, c, label, streams, untraced)
	if err != nil {
		return err
	}
	l.untraced += untracedWall
	fresh, err := cmp.WorkloadStreams(c.cfg, c.benches, cmp.PhaseRefs(w.cycles))
	if err != nil {
		return err
	}
	toRecord, err := cmp.WorkloadStreams(c.cfg, c.benches, cmp.PhaseRefs(w.cycles))
	if err != nil {
		return err
	}
	for i, cr := range res.Cores {
		if counted[i].n != cr.Instructions {
			return fmt.Errorf("core %d: the run drew %d instructions and committed %d", i, counted[i].n, cr.Instructions)
		}
		d := genDecode(fresh[i], cr.Instructions)
		l.gen += d
		l.genN += cr.Instructions
		l.decode += d
		rec := trace.NewRecording(toRecord[i])
		t := time.Now()
		rec.Record(ceilBatch(cr.Instructions))
		l.record += time.Since(t)
		l.recordN += rec.Len()
		l.recordB += rec.Bytes()
		cl, err := iso.isolate(rec, i, cr, s.lat[i])
		rec.Recycle()
		if err != nil {
			return fmt.Errorf("%s: %w", c.key(label), err)
		}
		l.addCore(cl, cr)
	}
	return nil
}

// sweepStats are the sweep layer's numbers from the untraced body.
type sweepStats struct {
	jobs                  []float64 // seconds per job
	busy                  float64
	putMS, loadMS, sizeKB float64
	failedJobs            int
}

// measureStore times the results store's read path (OpenStore over the
// sweep's store, the resume path) and write path (every result put into a
// fresh store).
func measureStore(b *body, results map[string]cmp.RunResult, dir string) (putMS, loadMS, sizeKB float64, err error) {
	fi, err := os.Stat(b.store)
	if err != nil {
		return 0, 0, 0, err
	}
	t := time.Now()
	st, err := sweep.OpenStore(b.store)
	if err != nil {
		return 0, 0, 0, err
	}
	loadMS = time.Since(t).Seconds() * 1e3
	st.Close()

	tmp, err := os.MkdirTemp(dir, "put-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(tmp)
	out, err := sweep.OpenStore(filepath.Join(tmp, "sweep.json"))
	if err != nil {
		return 0, 0, 0, err
	}
	defer out.Close()
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t = time.Now()
	for _, k := range keys {
		if err := out.Put(k, results[k]); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := out.Close(); err != nil {
		return 0, 0, 0, err
	}
	putMS = time.Since(t).Seconds() * 1e3 / float64(len(keys))
	return putMS, loadMS, float64(fi.Size()) / 1024, nil
}

// measureLayers runs w's body once untraced, then re-runs every cell on
// one goroutine untraced and traced, isolates each layer, checks every
// isolated layer against the run, and reports the per-layer metrics. A
// failed fidelity check rejects the whole traced run.
func measureLayers(ctx context.Context, w *workload, seed uint64, dir string, log io.Writer) (*report, error) {
	rep := newReport()
	b, err := w.setUp(seed, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.cleanup()
	cpubudget.ResetPeak()
	out, err := runBody(ctx, b, &digestChecker{workload: w.name, seed: seed}, log)
	if err != nil {
		return nil, err
	}
	tokens := cpubudget.Peak()
	rep.count(out.attempted, out.failed)
	rep.count(sanityChecks(w, seed, b.cells, out.results, log))
	if out.failed > 0 {
		return nil, fmt.Errorf("the untraced body failed its checks; no layer numbers")
	}

	var sw sweepStats
	if b.store != "" {
		if sw.jobs, err = jobDurations(b.order(), b.done, workers); err != nil {
			return nil, err
		}
		sw.busy = busyFrac(sw.jobs, out.wall.Seconds(), workers)
		sw.failedJobs = b.failedJobs
		if sw.putMS, sw.loadMS, sw.sizeKB, err = measureStore(b, out.results, dir); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}

	l := &ledger{spanCost: spanCost(), familyTime: map[string]time.Duration{}, familyCount: map[string]int64{}}
	iso := &isolator{cfg: b.cells[0].cfg, cycles: w.cycles}
	for _, c := range b.cells {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		iso.cfg = c.cfg
		if w.replayed() {
			err = l.replayedCell(w, c, out.results, iso)
		} else {
			err = l.liveCell(w, c, out.results, out.wall, iso)
		}
		if err != nil {
			return nil, fmt.Errorf("traced run rejected: %w", err)
		}
	}
	rep.count(l.sims, 0)
	fmt.Fprintf(log, "%s: traced %d runs; every digest, L1 count, cpu.Stats and decode count matched\n", w.name, l.runs)
	l.report(rep, out.results)
	sweepReport(rep, sw)
	rep.add("cmp.epoch_tokens_peak", float64(tokens), "count")
	rep.add("go.alloc_mb", out.allocMB, "MB")
	rep.add("go.gc_cycles", float64(out.gcs), "count")
	rep.add("unattributed_frac", 1-l.attributed()/l.traced.Seconds(), "ratio")
	rep.add("trace_overhead_frac", l.traced.Seconds()/l.untraced.Seconds()-1, "ratio")
	return rep, nil
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ns is a duration in nanoseconds.
func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// net subtracts n spans' clock-read cost from a span total.
func net(total time.Duration, n int64, cost time.Duration) time.Duration {
	return max(total-time.Duration(n)*cost, 0)
}

// ctrlTime is the controller's own time: every span, less its clock reads.
func (l *ledger) ctrlTime(cost time.Duration) time.Duration {
	return net(l.ctrl.access, l.ctrl.nAccess, cost) +
		net(l.ctrl.writeback, l.ctrl.nWriteback, cost) +
		net(l.ctrl.tick, l.ctrl.nTick, cost)
}

// attributed is the traced run's time the isolated layers account for, in
// seconds.
func (l *ledger) attributed() float64 {
	return (l.decode + l.core + l.l1 + l.ctrlTime(l.spanCost)).Seconds()
}

// report adds the layer metrics. The simulated counts come from the
// untraced results; they repeat exactly.
func (l *ledger) report(rep *report, results map[string]cmp.RunResult) {
	cost := l.spanCost
	tr := ns(l.traced)
	kinstr := float64(l.committed) / 1e3
	rep.add("trace.replay_ns_per_instr", ratio(ns(l.replay), float64(l.replayN)), "ns")
	rep.add("trace.gen_ns_per_instr", ratio(ns(l.gen), float64(l.genN)), "ns")
	rep.add("trace.record_ns_per_instr", ratio(ns(l.record), float64(l.recordN)), "ns")
	rep.add("trace.record_bytes_per_instr", ratio(float64(l.recordB), float64(l.recordN)), "B")
	rep.add("trace.share", ratio(ns(l.decode), tr), "ratio")
	rep.add("cpu.ns_per_instr", ratio(ns(l.core), float64(l.committed)), "ns")
	rep.add("cpu.share", ratio(ns(l.core), tr), "ratio")
	rep.add("cache.l1_ns_per_access", ratio(ns(l.l1), float64(l.accesses)), "ns")
	rep.add("cache.l1_access_per_instr", ratio(float64(l.accesses), float64(l.committed)), "ratio")
	rep.add("cache.share", ratio(ns(l.l1), tr), "ratio")
	rep.add("ctrl.access_ns", ratio(ns(net(l.ctrl.access, l.ctrl.nAccess, cost)), float64(l.ctrl.nAccess)), "ns")
	rep.add("ctrl.access_per_kinstr", ratio(float64(l.ctrl.nAccess), kinstr), "count")
	rep.add("ctrl.writeback_ns", ratio(ns(net(l.ctrl.writeback, l.ctrl.nWriteback, cost)), float64(l.ctrl.nWriteback)), "ns")
	rep.add("ctrl.tick_ns", ratio(ns(net(l.ctrl.tick, l.ctrl.nTick, cost)), float64(l.ctrl.nTick)), "ns")
	rep.add("ctrl.share", ratio(ns(l.ctrlTime(cost)), tr), "ratio")
	for _, f := range families {
		n := l.familyCount[f]
		rep.add("ctrl."+f+".access_ns", ratio(ns(net(l.familyTime[f], n, cost)), float64(n)), "ns")
	}

	var instrs, cycles, retr, retrHit, spills, drops, txn, wait, busy, dram, stalls int64
	for _, r := range results {
		cycles += r.Cycles
		for _, c := range r.Cores {
			instrs += c.Instructions
		}
		rp := r.Report
		retr += rp.Retrievals
		retrHit += rp.RetrievalHits
		spills += rp.Spills
		drops += rp.SpillNoTaker
		for _, t := range rp.Bus.Transactions {
			txn += t
		}
		wait += rp.Bus.WaitCycles
		busy += rp.Bus.BusyCycles
		dram += rp.DRAM.Reads + rp.DRAM.Writes
		for _, wb := range rp.WB {
			stalls += wb.FullStalls
		}
	}
	simK := float64(instrs) / 1e3
	rep.add("ctrl.retrieval_hit_frac", ratio(float64(retrHit), float64(retr)), "ratio")
	rep.add("ctrl.spill_drop_frac", ratio(float64(drops), float64(spills+drops)), "ratio")
	rep.add("bus.txn_per_kinstr", ratio(float64(txn), simK), "count")
	rep.add("bus.wait_cycles_per_txn", ratio(float64(wait), float64(txn)), "cycles")
	// Busy cycles of the address and data paths together per simulated
	// cycle, so it can exceed 1.
	rep.add("bus.utilization", ratio(float64(busy), float64(cycles)), "ratio")
	rep.add("mem.dram_per_kinstr", ratio(float64(dram), simK), "count")
	rep.add("mem.wb_full_stalls_per_kinstr", ratio(float64(stalls), simK), "count")
}

// sweepReport adds the sweep layer's metrics; live16-snug runs no sweep
// and reports them as 0. sweep.retries counts the job failures the
// sweep's progress stream reported: the benchmark runs sweeps as users do,
// with retry off, so each one would be a retry under -retries.
func sweepReport(rep *report, sw sweepStats) {
	rep.add("sweep.job_s.p50", median(sw.jobs), "s")
	rep.add("sweep.job_s.max", maxOf(sw.jobs), "s")
	rep.add("sweep.busy_frac", sw.busy, "ratio")
	rep.add("sweep.store_put_ms", sw.putMS, "ms")
	rep.add("sweep.store_load_ms", sw.loadMS, "ms")
	rep.add("sweep.store_kb", sw.sizeKB, "KB")
	rep.add("sweep.retries", float64(sw.failedJobs), "count")
}
