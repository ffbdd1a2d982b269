package main

import (
	"fmt"
	"io"

	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/trace"
)

var defaultSeed = config.Default().Seed

// goldenCell runs the 4-core SNUG sanity cell and reports whether it
// reproduces goldenDigest.
func goldenCell(log io.Writer) bool {
	res, err := cmp.RunWorkload(config.TestScale(), "SNUG", []string{"ammp", "parser", "swim", "mesa"}, 1_200_000)
	if err != nil {
		fmt.Fprintln(log, "FAIL golden 4-core SNUG cell:", err)
		return false
	}
	if d := runDigest(res); d != goldenDigest {
		fmt.Fprintf(log, "FAIL golden 4-core SNUG cell: digest %s, want %s\n", d, goldenDigest)
		return false
	}
	return true
}

// digestChecker checks each body's result digest: against the pinned
// digest at the default seed, and against the first body's digest at any
// other seed.
type digestChecker struct {
	workload string
	seed     uint64
	first    string
}

// check reports whether digest is the expected one.
func (c *digestChecker) check(digest string, log io.Writer) bool {
	if c.seed == defaultSeed {
		want := pinnedDigests[c.workload]
		if digest != want {
			fmt.Fprintf(log, "FAIL %s result digest %s, pinned %s\n", c.workload, digest, want)
			return false
		}
		return true
	}
	if c.first == "" {
		c.first = digest
		return true
	}
	if digest != c.first {
		fmt.Fprintf(log, "FAIL %s result digest %s, the first run at this seed gave %s\n", c.workload, digest, c.first)
		return false
	}
	return true
}

// replayMatchesLive re-runs the workload's first cell under its last
// scheme with the other stream source — live generators for a replayed
// workload, a recording's replay for a live one — and reports whether it
// reproduces want.
func replayMatchesLive(w *workload, c cell, want cmp.RunResult, log io.Writer) bool {
	label := c.labels[len(c.labels)-1]
	streams, err := cmp.WorkloadStreams(c.cfg, c.benches, cmp.PhaseRefs(w.cycles))
	if err != nil {
		fmt.Fprintln(log, "FAIL replay-versus-live cell:", err)
		return false
	}
	if !w.replayed() {
		recs := trace.RecordAll(streams)
		defer trace.RecycleAll(recs)
		streams = trace.Replays(recs)
	}
	got, err := cmp.RunStreams(c.cfg, label, streams, w.cycles)
	if err != nil {
		fmt.Fprintln(log, "FAIL replay-versus-live cell:", err)
		return false
	}
	if g, x := runDigest(got), runDigest(want); g != x {
		fmt.Fprintf(log, "FAIL %s: the other stream source gives digest %s, the workload %s\n", c.key(label), g, x)
		return false
	}
	return true
}

// sanityChecks runs the checks every run makes once besides its bodies:
// the golden cell and, at a non-default seed, one cell replayed against
// live. It returns the simulations attempted and failed.
func sanityChecks(w *workload, seed uint64, cells []cell, results map[string]cmp.RunResult, log io.Writer) (attempted, failed int) {
	attempted++
	if !goldenCell(log) {
		failed++
	}
	if seed == defaultSeed {
		return attempted, failed
	}
	c := cells[0]
	want, ok := results[c.key(c.labels[len(c.labels)-1])]
	attempted++
	if !ok || !replayMatchesLive(w, c, want, log) {
		failed++
	}
	return attempted, failed
}
