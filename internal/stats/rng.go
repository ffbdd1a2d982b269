package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**-style state initialized by splitmix64). The simulator must
// be bit-for-bit reproducible for a given seed across Go releases, so it
// does not use math/rand. The zero value is not valid; use NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Uint64 returns the next 64 pseudo-random bits.
//
// The state is worked in locals and written back in one assignment, and
// the rotations use bits.RotateLeft64: that keeps Uint64 within the
// compiler's inlining budget, so every draw in the generators'
// per-instruction path inlines. The sequence is unchanged.
//
//snug:inline
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: RNG.Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Uint53 returns the next 53-bit draw: the integer Float64 scales into
// [0, 1).
//
//snug:inline
func (r *RNG) Uint53() uint64 { return r.Uint64() >> 11 }

// Below reports whether the next 53-bit draw is below the threshold t. With
// t = Threshold(p) it consumes the same draw and returns the same result as
// Bool(p), using an integer compare instead of a float conversion.
//
//snug:inline
func (r *RNG) Below(t uint64) bool { return r.Uint53() < t }

// Threshold converts a probability into the integer threshold Below
// compares against. A draw x = Uint53() is below 2^53, so Float64 is
// exactly x/2^53 and the comparison x/2^53 < p holds exactly when
// x < ceil(p·2^53); scaling by 2^53 is exact, so the ceiling is too.
// Probabilities at or below 0 (and NaN, which no draw is below) map to 0,
// and those at or above 1 to 2^53, which every draw is below.
func Threshold(p float64) uint64 {
	const scale = 1 << 53
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return scale
	}
	return uint64(math.Ceil(p * scale))
}

// Mix64 hashes x through splitmix64's finalizer. It is used for stateless
// deterministic decisions (e.g. assigning a per-set demand depth from the
// set index) so results do not depend on visit order.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString hashes s into a well-mixed 64-bit value (FNV-1a finalized by
// Mix64). It anchors every name-derived seed in the simulator: benchmark
// demand maps (internal/trace) and sweep job seeds (internal/sweep), so a
// job's randomness is a pure function of its identity, never of scheduling.
func HashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return Mix64(h)
}
