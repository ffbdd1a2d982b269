package main

import (
	"io"
	"testing"

	"snug/internal/cmp"
)

func sampleResults() map[string]cmp.RunResult {
	return map[string]cmp.RunResult{
		"4xammp/L2P":  {Scheme: "L2P", Cycles: 100, Cores: []cmp.CoreResult{{Benchmark: "ammp", Instructions: 250, L1Hits: 70, L1Misses: 5}}},
		"4xammp/SNUG": {Scheme: "SNUG", Cycles: 100, Cores: []cmp.CoreResult{{Benchmark: "ammp", Instructions: 260, L1Hits: 71, L1Misses: 4}}},
	}
}

// perturbed copies results with one counter of one run changed.
func perturbed(results map[string]cmp.RunResult) map[string]cmp.RunResult {
	out := make(map[string]cmp.RunResult, len(results))
	for k, r := range results {
		r.Cores = append([]cmp.CoreResult(nil), r.Cores...)
		out[k] = r
	}
	r := out["4xammp/SNUG"]
	r.Cores[0].L1Misses++
	out["4xammp/SNUG"] = r
	return out
}

func TestResultsDigest(t *testing.T) {
	res := sampleResults()
	if resultsDigest(res) != resultsDigest(sampleResults()) {
		t.Fatal("digest is not a function of the results")
	}
	if resultsDigest(res) == resultsDigest(perturbed(res)) {
		t.Error("a perturbed counter left the digest unchanged")
	}
	one := map[string]cmp.RunResult{"x": res["4xammp/L2P"]}
	if resultsDigest(one) != runDigest(res["4xammp/L2P"]) {
		t.Error("a one-run workload's digest is not the golden-test hash of its run")
	}
}

func TestDigestCheckerRejectsPerturbedResult(t *testing.T) {
	res := sampleResults()
	good, bad := resultsDigest(res), resultsDigest(perturbed(res))

	// At the default seed the pinned digest decides.
	pinnedDigests["test-workload"] = good
	defer delete(pinnedDigests, "test-workload")
	pinned := &digestChecker{workload: "test-workload", seed: defaultSeed}
	if !pinned.check(good, io.Discard) {
		t.Error("the pinned digest was rejected")
	}
	if pinned.check(bad, io.Discard) {
		t.Error("a perturbed result passed the pinned digest")
	}

	// At any other seed every body must repeat the first.
	self := &digestChecker{workload: "test-workload", seed: defaultSeed + 1}
	if !self.check(good, io.Discard) || !self.check(good, io.Discard) {
		t.Error("a repeated digest was rejected")
	}
	if self.check(bad, io.Discard) {
		t.Error("a perturbed repeat passed the self-consistency check")
	}

	// The traced run's per-run check compares against the untraced result.
	if err := checkDigest("4xammp/SNUG", perturbed(res)["4xammp/SNUG"], res); err == nil {
		t.Error("checkDigest accepted a perturbed run")
	}
	if err := checkDigest("4xammp/SNUG", res["4xammp/SNUG"], res); err != nil {
		t.Errorf("checkDigest rejected an identical run: %v", err)
	}
	if err := checkDigest("missing", res["4xammp/SNUG"], res); err == nil {
		t.Error("checkDigest accepted a run with no untraced twin")
	}
}
