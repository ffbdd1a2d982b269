package trace

import (
	"sync"
	"testing"

	"snug/internal/addr"
	"snug/internal/config"
	"snug/internal/isa"
	"snug/internal/stats"
)

// recGeom mirrors the test-scale L2 slice geometry.
var recGeom = addr.MustGeometry(64, 64)

// newTestGen builds a fresh generator for the named profile and seed.
func newTestGen(t *testing.T, name string, seed uint64) *Generator {
	t.Helper()
	prof, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(prof, recGeom, seed, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestReplayMatchesLiveStream is the subsystem's core contract: a replay
// serves exactly the instructions the live generator would have produced,
// field for field, across phase transitions and every instruction kind.
func TestReplayMatchesLiveStream(t *testing.T) {
	for _, name := range []string{"ammp", "vortex", "mcf", "swim"} {
		live := newTestGen(t, name, 42)
		rec := NewRecording(newTestGen(t, name, 42))
		rp := rec.Replay()
		var want, got isa.Instr
		for i := 0; i < 300_000; i++ {
			live.Next(&want)
			rp.Next(&got)
			if got != want {
				t.Fatalf("%s: instruction %d: replay %+v, live %+v", name, i, got, want)
			}
		}
		if rp.Pos() != 300_000 {
			t.Errorf("%s: Pos() = %d, want 300000", name, rp.Pos())
		}
	}
}

// TestReplayNextBatchMatchesNext: the batched decode path is the one the
// core model's run loop uses; it must serve exactly the instructions Next
// would, across window boundaries and ragged batch sizes (including
// batches larger than one extension).
func TestReplayNextBatchMatchesNext(t *testing.T) {
	rec := NewRecording(newTestGen(t, "vortex", 42))
	one := rec.Replay()
	batched := rec.Replay()
	sizes := []int{1, 3, 256, 17, 4096 + 9, 64}
	buf := make([]isa.Instr, 4096+9)
	var want isa.Instr
	total := int64(0)
	for i := 0; total < 40_000; i++ {
		n := sizes[i%len(sizes)]
		if got := batched.NextBatch(buf[:n]); got != n {
			t.Fatalf("NextBatch(%d) = %d", n, got)
		}
		for j := 0; j < n; j++ {
			one.Next(&want)
			if buf[j] != want {
				t.Fatalf("instruction %d: batch %+v, next %+v", total+int64(j), buf[j], want)
			}
		}
		total += int64(n)
		if batched.Pos() != total {
			t.Fatalf("Pos() = %d after %d batched instructions", batched.Pos(), total)
		}
	}
}

// TestReplayCursorsIndependent checks that cursors over one recording do
// not disturb each other: a second cursor started later sees the stream
// from the beginning.
func TestReplayCursorsIndependent(t *testing.T) {
	rec := NewRecording(newTestGen(t, "parser", 7))
	a := rec.Replay()
	var in isa.Instr
	first := make([]isa.Instr, 1000)
	for i := range first {
		a.Next(&first[i])
	}
	// Drain a further ahead, then start b from scratch.
	for i := 0; i < 100_000; i++ {
		a.Next(&in)
	}
	b := rec.Replay()
	for i := range first {
		b.Next(&in)
		if in != first[i] {
			t.Fatalf("instruction %d: second cursor %+v, first cursor %+v", i, in, first[i])
		}
	}
}

// TestReplayConcurrent runs several cursors over one shared recording from
// different goroutines (the sweep's scheme-parallel shape) and checks every
// cursor decodes the identical stream. Run under -race this also validates
// the publication protocol.
func TestReplayConcurrent(t *testing.T) {
	rec := NewRecording(newTestGen(t, "ammp", 99))
	const n = 120_000
	want := make([]isa.Instr, n)
	ref := rec.Replay()
	for i := range want {
		ref.Next(&want[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := rec.Replay()
			var in isa.Instr
			for i := 0; i < n; i++ {
				rp.Next(&in)
				if in != want[i] {
					errs <- "cursor diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestReplayConcurrentLazyExtension has racing cursors drive extension
// themselves (no pre-recorded prefix), exercising extension under
// contention rather than read-after-publish only.
func TestReplayConcurrentLazyExtension(t *testing.T) {
	rec := NewRecording(newTestGen(t, "vortex", 3))
	const n = 80_000
	var wg sync.WaitGroup
	sums := make([]uint64, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rp := rec.Replay()
			var in isa.Instr
			var sum uint64
			for i := 0; i < n; i++ {
				rp.Next(&in)
				sum = sum*1099511628211 + in.PC ^ uint64(in.Kind)<<56 ^ uint64(in.Addr)
			}
			sums[w] = sum
		}(w)
	}
	wg.Wait()
	for w := 1; w < len(sums); w++ {
		if sums[w] != sums[0] {
			t.Fatalf("cursor %d decoded a different stream (digest %x, want %x)", w, sums[w], sums[0])
		}
	}
}

// TestRecordingCompact pins the encoding's space advantage: the paper-model
// streams are dominated by sequential-PC filler, so the recording must stay
// well under 4 bytes per instruction (raw isa.Instr is 40).
func TestRecordingCompact(t *testing.T) {
	rec := NewRecording(newTestGen(t, "ammp", 5))
	rec.Record(200_000)
	n, bytes := rec.Len(), rec.Bytes()
	if n < 200_000 {
		t.Fatalf("recorded %d instructions, want >= 200000", n)
	}
	perInstr := float64(bytes) / float64(n)
	if perInstr >= 4 {
		t.Errorf("encoding uses %.2f bytes/instruction, want < 4", perInstr)
	}
	t.Logf("%d instructions in %d bytes (%.2f B/instr)", n, bytes, perInstr)
}

// maxSweepBytesPerInstr bounds the encoded size of every profile's stream
// at a sweep-derived seed.
const maxSweepBytesPerInstr = 1.7

// TestRecordingCompactAtSweepSeeds pins the encoded size of every profile
// as a sweep records it. A small seed puts the branch sites (seed<<8 ^
// site offset) right beside the sequential PCs, which flatters the PC
// coding; a sweep job's seed is a full 64-bit hash, which puts them far
// away. Each profile runs as the four cores of its "4x<name>" stress
// combo, seeded per core as cmp.WorkloadStreams seeds them from the
// combo's sweep.JobSeed.
func TestRecordingCompactAtSweepSeeds(t *testing.T) {
	const perCore = 100_000
	for _, name := range Names() {
		jobSeed := stats.Mix64(config.Default().Seed ^ stats.HashString("4x"+name)) // sweep.JobSeed
		var n, bytes int64
		for core := uint64(0); core < 4; core++ {
			g := MustGenerator(MustByName(name), recGeom, jobSeed+core*0x1000_0001, 50_000)
			g.WithDemandSalt(core + 1)
			rec := NewRecording(g)
			rec.Record(perCore)
			n += rec.Len()
			bytes += rec.Bytes()
			rec.Recycle()
		}
		perInstr := float64(bytes) / float64(n)
		if perInstr > maxSweepBytesPerInstr {
			t.Errorf("%s: encoding uses %.2f bytes/instruction at a sweep seed, want <= %.1f", name, perInstr, maxSweepBytesPerInstr)
		}
		t.Logf("%-6s %.3f B/instr", name, perInstr)
	}
}

// TestRecordingLazy checks extension happens on demand, not eagerly.
func TestRecordingLazy(t *testing.T) {
	rec := NewRecording(newTestGen(t, "gzip", 11))
	if rec.Len() != 0 {
		t.Fatalf("fresh recording has %d instructions, want 0", rec.Len())
	}
	rp := rec.Replay()
	var in isa.Instr
	rp.Next(&in)
	got := rec.Len()
	if got <= 0 || got > 4*extendBatch {
		t.Errorf("after one Next, recording holds %d instructions, want one small batch", got)
	}
}

// BenchmarkReplayNext measures the replay decode hot path.
func BenchmarkReplayNext(b *testing.B) {
	prof, err := ByName("ammp")
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenerator(prof, recGeom, 42, 50_000)
	if err != nil {
		b.Fatal(err)
	}
	rec := NewRecording(g)
	rec.Record(int64(1_000_000))
	rp := rec.Replay()
	var in isa.Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rp.Pos() >= 1_000_000 {
			rp = rec.Replay() // stay inside the pre-recorded prefix
		}
		rp.Next(&in)
	}
}

// BenchmarkRecord measures recording — generation plus encoding — per
// instruction of a stream at a sweep-derived seed, and reports the
// encoded size.
func BenchmarkRecord(b *testing.B) {
	seed := stats.Mix64(config.Default().Seed ^ stats.HashString("4xvortex"))
	var n, bytes int64
	for n < int64(b.N) {
		rec := NewRecording(MustGenerator(MustByName("vortex"), recGeom, seed, 50_000))
		rec.Record(min(int64(b.N)-n, 1<<20)) // recycle every ~1M instructions
		n += rec.Len()
		bytes += rec.Bytes()
		rec.Recycle()
	}
	b.ReportMetric(float64(bytes)/float64(n), "B/instr")
}

// TestRecycleReusesChunksAndPoisons pins the Recycle contract: recycled
// recordings return their chunk storage to the shared pool (a fresh
// recording decodes correctly over the reused memory), and any use of the
// recycled recording panics instead of silently reading another stream's
// bytes.
func TestRecycleReusesChunksAndPoisons(t *testing.T) {
	const n = 200_000 // tens of chunks: reuse exercises more than one buffer
	first := NewRecording(newTestGen(t, "ammp", 1))
	first.Record(n)
	first.Recycle()
	first.Recycle() // idempotent

	// A post-recycle recording draws from the pool; its replay must match
	// its own live source exactly even though the buffers were just used.
	rec := NewRecording(newTestGen(t, "swim", 2))
	rep := rec.Replay()
	live := newTestGen(t, "swim", 2)
	var want, got isa.Instr
	for i := 0; i < n; i++ {
		live.Next(&want)
		rep.Next(&got)
		if got != want {
			t.Fatalf("instr %d after recycle: got %+v want %+v", i, got, want)
		}
	}

	for name, f := range map[string]func(){
		"Replay": func() { first.Replay() },
		"Record": func() { first.Record(first.Len() + 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a recycled recording did not panic", name)
				}
			}()
			f()
		}()
	}
}
