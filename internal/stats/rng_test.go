package stats

import (
	"math"
	"testing"
)

// rngPins are the first 16 Uint64 outputs for two seeds, taken from the
// shift-and-or rotation form Uint64 had before it was made inlinable. The
// simulator's results are pinned to this sequence.
var rngPins = []struct {
	seed uint64
	want [16]uint64
}{
	{seed: 0, want: [16]uint64{
		0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c,
		0xbba5ad4a1f842e59, 0xffef8375d9ebcaca, 0x6c160deed2f54c98, 0x8920ad648fc30a3f,
		0xdb032c0ba7539731, 0xeb3a475a3e749a3d, 0x1d42993fa43f2a54, 0x11361bf526a14bb5,
		0x1b4f07a5ab3d8e9c, 0xa7a3257f6986db7f, 0x7efdaa95605dfc9c, 0x4bde97c0a78eaab8,
	}},
	{seed: 0x9e3779b97f4a7c15, want: [16]uint64{
		0x422ea740d0977210, 0xe062b061b42e2928, 0x5a071fc5930841b6, 0x01334ef8ed3cc2bd,
		0xe45cbd6a2d9e96db, 0x3bc1fe841a5f292f, 0x60001d95ebbbd8e6, 0xa0aee00b5b303762,
		0x9e23c8d7514cf750, 0xfc79b675a1a76a3c, 0xd430797eb1952242, 0x5d8c1e38c042f56d,
		0x62192f394c129095, 0xb66848e210a0f50d, 0x2d1d2eb24edaba45, 0x794532bcac68202c,
	}},
}

func TestRNGSequencePinned(t *testing.T) {
	for _, pin := range rngPins {
		r := NewRNG(pin.seed)
		for i, want := range pin.want {
			if got := r.Uint64(); got != want {
				t.Fatalf("seed %#x: output %d = %#016x, want %#016x", pin.seed, i, got, want)
			}
		}
	}
}

func TestThresholdEdges(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want uint64
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{math.Inf(-1), 0},
		{math.SmallestNonzeroFloat64, 1},
		{0x1p-53, 1},
		{0x1.8p-53, 2},
		{0.5, 1 << 52},
		{math.Nextafter(1, 0), 1<<53 - 1},
		{1, 1 << 53},
		{2, 1 << 53},
		{math.Inf(1), 1 << 53},
	} {
		if got := Threshold(tc.p); got != tc.want {
			t.Errorf("Threshold(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// FuzzBelowMatchesBool checks that Below(Threshold(p)) decides exactly as
// Bool(p): draw for draw on identically seeded RNGs, and at the threshold
// boundary itself, where a draw x must satisfy x/2^53 < p exactly when
// x < Threshold(p). The committed corpus holds the edge probabilities and
// every threshold the registered trace profiles draw against.
func FuzzBelowMatchesBool(f *testing.F) {
	for _, p := range []float64{0, 1, -0.25, 1.5, math.NaN(), math.SmallestNonzeroFloat64, math.Nextafter(1, 0)} {
		f.Add(p, uint64(1))
	}
	f.Fuzz(func(t *testing.T, p float64, seed uint64) {
		th := Threshold(p)
		if th > 1<<53 {
			t.Fatalf("Threshold(%v) = %d exceeds 2^53", p, th)
		}
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 64; i++ {
			if got, want := a.Below(th), b.Bool(p); got != want {
				t.Fatalf("p=%v seed=%d draw %d: Below = %v, Bool = %v", p, seed, i, got, want)
			}
		}
		for _, x := range []uint64{th - 1, th, th + 1, 0, 1<<53 - 1} {
			if x >= 1<<53 {
				continue
			}
			if got, want := x < th, float64(x)/(1<<53) < p; got != want {
				t.Fatalf("p=%v: draw %d below threshold %d is %v, below p is %v", p, x, th, got, want)
			}
		}
	})
}
