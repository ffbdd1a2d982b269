package trace

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"snug/internal/addr"
	"snug/internal/isa"
	"snug/internal/stats"
)

// sliceStream is an endless isa.BatchStream over a fixed instruction
// sequence, served cyclically.
type sliceStream struct {
	prog []isa.Instr
	i    int
}

func (s *sliceStream) Name() string { return "slice" }

func (s *sliceStream) Next(in *isa.Instr) {
	*in = s.prog[s.i]
	s.i = (s.i + 1) % len(s.prog)
}

func (s *sliceStream) NextBatch(dst []isa.Instr) int {
	for i := range dst {
		s.Next(&dst[i])
	}
	return len(dst)
}

// fuzzReader hands out a fuzz input's bytes, then zeros once it runs out.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) done() bool { return len(r.data) == 0 }

func (r *fuzzReader) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzReader) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = r.next()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Fuzz-program op byte: the PC op in the low three bits, the DepPrev and
// Taken flags, and the address op of loads and stores in the top three
// bits. A kind byte follows every op byte, then the operands the op names.
const (
	opSeq     = iota // PC + 4
	opRun            // a sequential run of 1 + 16*<byte> instructions
	opFarAlt         // jump to the two far targets in turn
	opFarRun         // a run of 1 + 16*<byte> opFarAlt jumps
	opFall           // return to the flow PC + 4
	opJump           // jump to a full-width <u64> PC
	opNear           // PC += a signed 16-bit <2 bytes> delta
	opNearFar        // jump to the last far target + 16*<signed byte>
	numPCOps
)

const (
	// maxFuzzProg bounds a fuzz program's length.
	maxFuzzProg = 1 << 15
	// maxFuzzReplay bounds how many instructions one fuzz run replays.
	maxFuzzReplay = 1 << 17
)

// fuzzProgram decodes a fuzz input into the instruction sequence it
// describes and the number of instructions to replay, which is the
// sequence served 1 + <first byte> times over. The next 16 bytes are two
// far jump targets. Then every op emits one instruction, or a run of them,
// mirroring the generators' shapes — sequential filler, branch sites far
// from the sequential PCs, fall-through back to them — alongside arbitrary
// full-width jumps, addresses and return targets. Every instruction is
// well-formed: only loads and stores carry an address and only returns a
// target.
func fuzzProgram(data []byte) (prog []isa.Instr, n int) {
	r := &fuzzReader{data: data}
	cycles := 1 + int(r.next())
	farTargets := [2]uint64{r.u64(), r.u64()}
	var pc, flow, a, far uint64
	alt := 0
	seq := func() {
		pc += 4
		flow = pc
	}
	farAlt := func() {
		far = farTargets[alt]
		alt ^= 1
		pc = far
	}
	for !r.done() && len(prog) < maxFuzzProg {
		op, kindByte := r.next(), r.next()
		tmpl := isa.Instr{
			Kind:    isa.Kind(int(kindByte) % isa.NumKinds),
			DepPrev: op&(1<<3) != 0,
			Taken:   op&(1<<4) != 0,
		}
		run, step := 1, seq
		switch op % numPCOps {
		case opSeq:
			seq()
		case opRun:
			run = 1 + 16*int(r.next())
			seq()
		case opFarAlt:
			farAlt()
		case opFarRun:
			run, step = 1+16*int(r.next()), farAlt
			farAlt()
		case opFall:
			pc = flow + 4
			flow = pc
		case opJump:
			pc = r.u64()
		case opNear:
			pc += uint64(int64(int16(uint16(r.next()) | uint16(r.next())<<8)))
		case opNearFar:
			pc = far + uint64(int64(int8(r.next()))*16)
		}
		for i := 0; i < run && len(prog) < maxFuzzProg; i++ {
			in := tmpl
			if i > 0 {
				step()
			}
			in.PC = pc
			switch in.Kind {
			case isa.KindLoad, isa.KindStore:
				switch op >> 5 {
				case 0:
					a += 64
				case 1:
					a = r.u64()
				case 2:
					a -= 64
				case 3:
					a ^= 1 << 63 // a full-width delta
				default:
					a += uint64(int64(int8(r.next())) * 64)
				}
				in.Addr = addr.Addr(a)
			case isa.KindReturn:
				in.Target = flow + 4
				if op&(1<<5) != 0 {
					in.Target = r.u64()
				}
			}
			prog = append(prog, in)
		}
	}
	if len(prog) == 0 {
		prog = append(prog, isa.Instr{PC: pc})
	}
	return prog, min(cycles*len(prog), maxFuzzReplay)
}

// FuzzRecordingRoundTrip feeds arbitrary instruction sequences through a
// Recording and checks that replay reproduces every field, through
// NextBatch at random batch sizes interleaved with Next, and through Next
// alone.
func FuzzRecordingRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { roundTrip(t, data) })
}

// roundTrip runs one FuzzRecordingRoundTrip input and returns how many
// chunks the recording filled.
func roundTrip(t *testing.T, data []byte) (chunks int) {
	prog, n := fuzzProgram(data)
	rec := NewRecording(&sliceStream{prog: prog})
	defer rec.Recycle()
	want := func(i int) isa.Instr { return prog[i%len(prog)] }

	rng := stats.NewRNG(stats.HashString(string(data)))
	batched := rec.Replay()
	buf := make([]isa.Instr, extendBatch+1)
	for i := 0; i < n; {
		size := 1 + rng.Intn(recordBatch)
		if rng.Intn(16) == 0 {
			size = len(buf)
		}
		dst := buf[:min(size, n-i)]
		for j := range dst {
			dst[j] = poisonInstr
		}
		if got := batched.NextBatch(dst); got != len(dst) {
			t.Fatalf("NextBatch(%d) = %d", len(dst), got)
		}
		for j := range dst {
			if dst[j] != want(i+j) {
				t.Fatalf("instruction %d: NextBatch %+v, want %+v", i+j, dst[j], want(i+j))
			}
		}
		i += len(dst)
		if i < n && rng.Intn(4) == 0 {
			got := poisonInstr
			batched.Next(&got)
			if got != want(i) {
				t.Fatalf("instruction %d: interleaved Next %+v, want %+v", i, got, want(i))
			}
			i++
		}
	}

	one := rec.Replay()
	for i := 0; i < n; i++ {
		got := poisonInstr
		one.Next(&got)
		if got != want(i) {
			t.Fatalf("instruction %d: Next %+v, want %+v", i, got, want(i))
		}
	}
	return len(*rec.chunks.Load())
}

// TestRoundTripCorpusCrossesChunkClose keeps the committed seed corpus
// honest: its long-sequential run (one-byte instructions), its full-width
// run and its chunk-edge run (a worst-case 21-byte instruction starting at
// the last offset that still fits one) must each replay across at least
// one chunk close.
func TestRoundTripCorpusCrossesChunkClose(t *testing.T) {
	for _, name := range []string{"long-sequential", "full-width", "chunk-edge"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRecordingRoundTrip", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(quoted)
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %q", name, lines[len(lines)-1])
		}
		if chunks := roundTrip(t, []byte(data)); chunks < 2 {
			t.Errorf("%s: replay stayed in %d chunk, want a chunk close", name, chunks)
		}
	}
}
