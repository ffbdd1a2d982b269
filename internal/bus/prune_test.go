package bus

import (
	"testing"

	"snug/internal/stats"
)

// refCalendar is the calendar with the linear-filter prune the prefix cut
// replaced, kept as the differential reference.
type refCalendar struct {
	busy    []interval
	horizon int64
}

func (c *refCalendar) place(t, dur int64) int64 {
	cur := t
	pos := 0
	for pos < len(c.busy) && c.busy[pos].end <= cur {
		pos++
	}
	for pos < len(c.busy) && c.busy[pos].start < cur+dur {
		cur = c.busy[pos].end
		pos++
	}
	c.busy = append(c.busy, interval{})
	copy(c.busy[pos+1:], c.busy[pos:])
	c.busy[pos] = interval{start: cur, end: cur + dur}
	if len(c.busy) >= pruneLen {
		c.prune(t)
	}
	return cur
}

func (c *refCalendar) prune(now int64) {
	cut := now - 4096
	if cut > c.horizon {
		c.horizon = cut
	}
	w := 0
	for _, iv := range c.busy {
		if iv.end >= c.horizon {
			c.busy[w] = iv
			w++
		}
	}
	c.busy = c.busy[:w]
}

func (c *refCalendar) hasGap(t, dur int64) bool {
	i := 0
	for i < len(c.busy) && c.busy[i].end <= t {
		i++
	}
	return i == len(c.busy) || c.busy[i].start >= t+dur
}

// refBus mirrors Bus.Acquire/TryAcquire over reference calendars; the
// durations come from the Bus under test.
type refBus struct {
	b          *Bus
	addr, data refCalendar
}

func (r *refBus) path(k Kind) *refCalendar {
	if k == KindSnoop {
		return &r.addr
	}
	return &r.data
}

func (r *refBus) acquire(now int64, k Kind) int64 {
	c := r.path(k)
	if now < c.horizon {
		now = c.horizon
	}
	dur := r.b.duration(k)
	return c.place(now, dur) + dur
}

func (r *refBus) tryAcquire(now int64, k Kind) (int64, bool) {
	c := r.path(k)
	if now < c.horizon {
		now = c.horizon
	}
	if !c.hasGap(now, r.b.duration(k)) {
		return 0, false
	}
	return r.acquire(now, k), true
}

// calendarTraffic is one randomized request-time shape.
type calendarTraffic struct {
	name    string
	advance int64 // the request clock moves forward by up to this much per op
	regress int64 // a request may sit up to this far behind the clock
}

var calendarShapes = []calendarTraffic{
	// Dense: hundreds of intervals stay live inside the prune slack, so
	// prune runs on every placement and removes nothing.
	{name: "dense", advance: 4, regress: 64},
	// Skewed: quantum-sized regressions over a moderately loaded bus.
	{name: "skewed", advance: 40, regress: 1000},
	// Sparse: the clock outruns the slack, so prunes cut long prefixes.
	{name: "sparse", advance: 3000, regress: 200},
	// Bursty: long idle jumps between dense bursts.
	{name: "bursty", advance: 9000, regress: 4000},
}

// TestPrunePrefixCutMatchesLinearFilter drives the calendar and the
// linear-filter reference through identical randomized Acquire/TryAcquire
// sequences and requires identical returns, identical surviving intervals
// and horizons, and a sorted, disjoint calendar after every placement.
func TestPrunePrefixCutMatchesLinearFilter(t *testing.T) {
	for _, shape := range calendarShapes {
		for seed := uint64(1); seed <= 8; seed++ {
			rng := stats.NewRNG(stats.Mix64(seed) ^ stats.HashString(shape.name))
			b := table4Bus()
			ref := &refBus{b: table4Bus()}
			clock := int64(0)
			maxLive := 0
			for op := 0; op < 4000; op++ {
				if rng.Intn(8) == 0 {
					clock += int64(rng.Intn(int(shape.advance)*8 + 1))
				} else {
					clock += int64(rng.Intn(int(shape.advance) + 1))
				}
				now := clock - int64(rng.Intn(int(shape.regress)+1))
				k := Kind(rng.Intn(int(numKinds)))
				if rng.Intn(4) == 0 {
					got, gotOK := b.TryAcquire(now, k)
					want, wantOK := ref.tryAcquire(now, k)
					if got != want || gotOK != wantOK {
						t.Fatalf("%s seed %d op %d: TryAcquire(%d, %s) = %d,%v, reference %d,%v",
							shape.name, seed, op, now, k, got, gotOK, want, wantOK)
					}
				} else if got, want := b.Acquire(now, k), ref.acquire(now, k); got != want {
					t.Fatalf("%s seed %d op %d: Acquire(%d, %s) = %d, reference %d",
						shape.name, seed, op, now, k, got, want)
				}
				for _, p := range []struct {
					got  *calendar
					want *refCalendar
				}{{&b.addrPath, &ref.addr}, {&b.dataPath, &ref.data}} {
					checkCalendar(t, p.got, p.want)
					maxLive = max(maxLive, len(p.got.busy))
				}
				if t.Failed() {
					t.Fatalf("%s seed %d op %d: calendars diverged", shape.name, seed, op)
				}
			}
			if shape.name == "dense" && maxLive <= pruneLen {
				t.Fatalf("dense traffic peaked at %d live intervals; it must exceed pruneLen (%d)", maxLive, pruneLen)
			}
		}
	}
}

// checkCalendar requires c to hold exactly ref's intervals and horizon, in
// sorted, disjoint order.
func checkCalendar(t *testing.T, c *calendar, ref *refCalendar) {
	t.Helper()
	if c.horizon != ref.horizon {
		t.Errorf("horizon %d, reference %d", c.horizon, ref.horizon)
	}
	if len(c.busy) != len(ref.busy) {
		t.Errorf("%d intervals, reference %d", len(c.busy), len(ref.busy))
		return
	}
	for i, iv := range c.busy {
		if iv != ref.busy[i] {
			t.Errorf("interval %d = %+v, reference %+v", i, iv, ref.busy[i])
			return
		}
		if iv.start >= iv.end || (i > 0 && iv.start < c.busy[i-1].end) {
			t.Errorf("interval %d = %+v breaks sorted/disjoint order after %+v", i, iv, c.busy[i-1])
			return
		}
	}
}

// TestPruneDropsOnlyTheStalePrefix pins prune's cut directly on
// hand-built calendars: every interval ending before the horizon goes,
// every other one stays, whether none, some or all are stale.
func TestPruneDropsOnlyTheStalePrefix(t *testing.T) {
	for _, tc := range []struct {
		now  int64
		want int // intervals kept
	}{
		{now: 0, want: 10},
		{now: 4096 + 100, want: 10}, // horizon 100: the first interval ends there
		{now: 4096 + 101, want: 9},
		{now: 4096 + 555, want: 5},
		{now: 4096 + 1000, want: 1},
		{now: 4096 + 1001, want: 0},
	} {
		c := &calendar{}
		for i := int64(0); i < 10; i++ {
			c.busy = append(c.busy, interval{start: i*100 + 50, end: i*100 + 100})
		}
		full := append([]interval(nil), c.busy...)
		c.prune(tc.now)
		if len(c.busy) != tc.want {
			t.Fatalf("prune(%d) kept %d intervals, want %d", tc.now, len(c.busy), tc.want)
		}
		for i, iv := range c.busy {
			if iv != full[len(full)-tc.want+i] {
				t.Fatalf("prune(%d) kept %+v at %d, want %+v", tc.now, iv, i, full[len(full)-tc.want+i])
			}
		}
	}
}
