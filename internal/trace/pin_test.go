package trace

import (
	"fmt"
	"testing"

	"snug/internal/addr"
	"snug/internal/isa"
)

// pinGeom is the Table 4 L2 slice (1 MB, 16-way, 64 B blocks).
var pinGeom = addr.MustGeometry(64, 1024)

// pinLen is how many instructions each stream pin covers.
const pinLen = 1 << 20

// pinRefs is the phase-rotation length of the pinned streams: small enough
// that vortex cycles through every phase several times within pinLen.
const pinRefs = 4096

// pinSeed is one pinned generator construction: the stream seed and the
// demand salt (0 leaves the benchmark's base demand map unsalted).
type pinSeed struct {
	seed, salt uint64
}

var pinSeeds = [2]pinSeed{{seed: 1}, {seed: 0x5eed_0000_cafe, salt: 2}}

// streamPins are FNV-1a hashes over every field of the first pinLen
// instructions of each registered profile at each pinSeeds entry, taken
// from the one-instruction-at-a-time generator before the batched path
// existed. Any change to a generator's output changes its pin.
var streamPins = map[string][2]uint64{
	"ammp":   {0x8c0d0dd7a011f4ae, 0x877fc78ee0ca8c7d},
	"applu":  {0x261bdffe84aabd33, 0xe83c03aeaf8a6f92},
	"apsi":   {0x7541268a57ef60ff, 0xfabb4f0bb615df0d},
	"art":    {0xbbdee70106e32f00, 0xe6cfe0fd74b5284d},
	"bzip2":  {0xff588608ee560c6b, 0x3f458ce9679453f5},
	"gcc":    {0x7a4d9f1ecfef7481, 0x68e723781594610c},
	"gzip":   {0x8fc0f92829ecf47f, 0xfc2fc63fd77549b5},
	"mcf":    {0x2cdfcb972de1512a, 0xc924400475d26277},
	"mesa":   {0xd3b5917b79e1c372, 0x88027fca95156710},
	"parser": {0x70763d5d39bb0281, 0x9e7ac6a5c85f3b0f},
	"swim":   {0x61b11228eb136b99, 0x8e69bd3930719fa0},
	"vortex": {0x0c571fd5066e068f, 0x2aa6a8acc4f958e7},
	"vpr":    {0x61ac0eb81f230e56, 0xc0b70262c67080cc},
}

// pinnedGenerator builds the generator a pin covers.
func pinnedGenerator(t testing.TB, name string, ps pinSeed) *Generator {
	t.Helper()
	g := MustGenerator(MustByName(name), pinGeom, ps.seed, pinRefs)
	if ps.salt != 0 {
		g.WithDemandSalt(ps.salt)
	}
	return g
}

// instrHasher folds instructions into an FNV-1a hash, field by field.
type instrHasher uint64

func newInstrHasher() instrHasher { return 0xcbf29ce484222325 }

func (h *instrHasher) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= 0x100000001b3
		v >>= 8
	}
	*h = instrHasher(x)
}

func (h *instrHasher) add(in *isa.Instr) {
	flags := uint64(in.Kind)
	if in.Taken {
		flags |= 1 << 8
	}
	if in.DepPrev {
		flags |= 1 << 9
	}
	h.word(flags)
	h.word(in.PC)
	h.word(uint64(in.Addr))
	h.word(in.Target)
}

// TestProfileStreamPins pins every registered profile's stream — all of
// Table 6 plus applu, vortex's phase rotation included — at two seeds.
func TestProfileStreamPins(t *testing.T) {
	if testing.Short() {
		t.Skip("hashes 2^20 instructions per profile and seed")
	}
	var table string
	for _, name := range Names() {
		var got [2]uint64
		for i, ps := range pinSeeds {
			g := pinnedGenerator(t, name, ps)
			h := newInstrHasher()
			var in isa.Instr
			seen := uint64(0) // phases visited, as a bit set
			for k := 0; k < pinLen; k++ {
				g.Next(&in)
				h.add(&in)
				seen |= 1 << g.PhaseIndex()
			}
			got[i] = uint64(h)
			if phases := len(g.prof.Phases); seen != 1<<phases-1 {
				t.Errorf("%s: pinned stream visits phases %b of %d", name, seen, phases)
			}
		}
		table += fmt.Sprintf("\t%q: {%#016x, %#016x},\n", name, got[0], got[1])
		want, ok := streamPins[name]
		if !ok {
			t.Errorf("%s: no pin", name)
			continue
		}
		if got != want {
			t.Errorf("%s: stream hashes %#016x, want %#016x", name, got, want)
		}
	}
	if t.Failed() {
		t.Logf("observed pins:\n%s", table)
	}
}
