package main

import (
	"strings"
	"testing"

	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/schemes"
	"snug/internal/trace"
)

// tinyRun is a 2-core SNUG system short enough for a unit test.
func tinyRun(t *testing.T) (config.System, []*trace.Recording, int64) {
	t.Helper()
	cfg := config.TestScale()
	cfg.Cores = 2
	const cycles = 60_000
	gens, err := cmp.WorkloadStreams(cfg, []string{"ammp", "swim"}, cmp.PhaseRefs(cycles))
	if err != nil {
		t.Fatal(err)
	}
	recs := trace.RecordAll(gens)
	t.Cleanup(func() { trace.RecycleAll(recs) })
	return cfg, recs, cycles
}

func TestTracedSpecCanonicalizes(t *testing.T) {
	s, err := schemes.Parse(tracedFamily + "(CC(75))")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "Traced(CC(75%))" {
		t.Errorf("canonical spec = %q", got)
	}
	if _, err := schemes.Parse(tracedFamily + "(Nope)"); err == nil {
		t.Error("a traced unknown scheme parsed")
	}
}

// TestCoreReplayReproducesRun traces a tiny run, rebuilds each core's
// access-latency sequence from the isolated L1 and the recorded
// controller latencies, and drives the core model alone over it: the
// core-only statistics must equal the run's exactly.
func TestCoreReplayReproducesRun(t *testing.T) {
	cfg, recs, cycles := tinyRun(t)
	plain, err := cmp.RunStreams(cfg, "SNUG", trace.Replays(recs), cycles)
	if err != nil {
		t.Fatal(err)
	}
	s := &spans{}
	armSpans(s)
	traced, err := cmp.RunStreams(cfg, tracedFamily+"(SNUG)", trace.Replays(recs), cycles)
	if err != nil {
		t.Fatal(err)
	}
	if runDigest(traced) != runDigest(plain) {
		t.Fatal("the span controller changed the run's result")
	}
	if s.nAccess == 0 || s.nTick != cycles/cfg.Quantum {
		t.Fatalf("spans recorded %d accesses and %d ticks", s.nAccess, s.nTick)
	}
	iso := &isolator{cfg: cfg, cycles: cycles}
	for i, cr := range traced.Cores {
		if int64(len(s.lat[i])) != cr.L1Misses {
			t.Fatalf("core %d: %d recorded latencies for %d L1 misses", i, len(s.lat[i]), cr.L1Misses)
		}
		cl, err := iso.isolate(recs[i], i, cr, s.lat[i])
		if err != nil {
			t.Fatalf("core %d: %v", i, err)
		}
		if cl.replayN != ceilBatch(cr.Instructions) {
			t.Errorf("core %d: core-only run consumed %d instructions for %d committed", i, cl.replayN, cr.Instructions)
		}
		if cl.accesses != cr.L1Hits+cr.L1Misses {
			t.Errorf("core %d: %d isolated accesses, the run %d", i, cl.accesses, cr.L1Hits+cr.L1Misses)
		}
	}

	// A wrong latency anywhere must make the core-only run diverge.
	bad := append([]int32(nil), s.lat[0]...)
	bad[0] += 5000
	if _, err := iso.isolate(recs[0], 0, traced.Cores[0], bad); err == nil || !strings.Contains(err.Error(), "core-only") {
		t.Errorf("perturbed latency: err = %v, want the core-only run to diverge", err)
	}
	// So must a missing one.
	if _, err := iso.isolate(recs[0], 0, traced.Cores[0], s.lat[0][1:]); err == nil {
		t.Error("a short latency sequence was accepted")
	}
	// And the isolated L1 must disagree with a different core's counts.
	wrong := traced.Cores[0]
	wrong.L1Hits++
	if _, err := iso.isolate(recs[0], 0, wrong, s.lat[0]); err == nil {
		t.Error("wrong L1 counts were accepted")
	}
}

func TestArmedSinkIsRequired(t *testing.T) {
	cfg, recs, cycles := tinyRun(t)
	if _, err := cmp.RunStreams(cfg, tracedFamily+"(L2P)", trace.Replays(recs), cycles); err == nil {
		t.Error("a traced controller was built with no span sink armed")
	}
}
