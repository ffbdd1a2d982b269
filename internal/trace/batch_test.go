package trace

import (
	"testing"

	"snug/internal/addr"
	"snug/internal/isa"
)

// poisonInstr sets every field, so a batch slot or Next target left
// partly unwritten shows up as a mismatch.
var poisonInstr = isa.Instr{Kind: isa.KindReturn, PC: ^uint64(0), Addr: ^addr.Addr(0), Taken: true, Target: ^uint64(0), DepPrev: true}

// TestGeneratorNextBatchMatchesNext: NextBatch must serve exactly the
// stream one-at-a-time Next serves, for ragged batch sizes (one, a few,
// the core's decode-ahead depth, more than one recording extension) that
// cut multi-instruction units anywhere, with single Next calls interleaved
// on the batched generator.
func TestGeneratorNextBatchMatchesNext(t *testing.T) {
	sizes := []int{1, 3, 256, 4097}
	buf := make([]isa.Instr, 4097)
	for _, name := range Names() {
		one := pinnedGenerator(t, name, pinSeeds[1])
		batched := pinnedGenerator(t, name, pinSeeds[1])
		var want, got isa.Instr
		total := 0
		for i := 0; total < 200_000; i++ {
			n := sizes[i%len(sizes)]
			for j := range buf[:n] {
				buf[j] = poisonInstr
			}
			if k := batched.NextBatch(buf[:n]); k != n {
				t.Fatalf("%s: NextBatch(%d) = %d", name, n, k)
			}
			for j := range buf[:n] {
				one.Next(&want)
				if buf[j] != want {
					t.Fatalf("%s: instruction %d: batch %+v, next %+v", name, total+j, buf[j], want)
				}
			}
			total += n
			for k := 0; k < i%3; k++ {
				got = poisonInstr
				batched.Next(&got)
				one.Next(&want)
				if got != want {
					t.Fatalf("%s: instruction %d: interleaved next %+v, next %+v", name, total, got, want)
				}
				total++
			}
		}
		if batched.Touches() != one.Touches() || batched.PhaseIndex() != one.PhaseIndex() {
			t.Fatalf("%s: batched generator ends at %d touches in phase %d, one-at-a-time at %d in phase %d",
				name, batched.Touches(), batched.PhaseIndex(), one.Touches(), one.PhaseIndex())
		}
	}
}
