package main

import (
	"fmt"
	"sort"
	"strings"

	"snug/internal/cmp"
	"snug/internal/stats"
)

// goldenDigest is the 4-core SNUG digest internal/cmp's golden test pins:
// the default test-scale system, the ammp/parser/swim/mesa mix, 1.2M
// cycles, live generators, the default seed. Every run reproduces it as a
// sanity cell.
const goldenDigest = "fb8ac38b40b7bdf7"

// pinnedDigests is each workload's expected result digest at the default
// seed (config.Default().Seed). At other seeds the benchmark checks
// self-consistency instead (see checkConsistency).
var pinnedDigests = map[string]string{
	"fig9-c1c3":   "0980fa93418f71ed",
	"live16-snug": "771c719c1e1a1ca5",
	"scale-c1":    "54778ab3f939db54",
}

// runDigest hashes everything a run reports, exactly as the golden test
// does.
func runDigest(r cmp.RunResult) string {
	return fmt.Sprintf("%016x", stats.HashString(fmt.Sprintf("%+v", r)))
}

// resultsDigest hashes a set of keyed results in sorted key order, so it
// does not depend on the order jobs finished in. A workload that is one run
// hashes to that run's runDigest.
func resultsDigest(results map[string]cmp.RunResult) string {
	if len(results) == 1 {
		for _, r := range results {
			return runDigest(r)
		}
	}
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, runDigest(results[k]))
	}
	return fmt.Sprintf("%016x", stats.HashString(b.String()))
}
