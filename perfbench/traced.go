package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"snug/internal/addr"
	"snug/internal/cache"
	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/cpu"
	"snug/internal/isa"
	"snug/internal/schemes"
	"snug/internal/trace"
)

// tracedFamily is the scheme family under which the traced run wraps a
// scheme: "Traced(SNUG)" builds SNUG inside a spanController.
const tracedFamily = "Traced"

// spans is what one spanController records: host time and call counts
// per Controller method, and every Access latency per core in call order.
type spans struct {
	access, writeback, tick    time.Duration
	nAccess, nWriteback, nTick int64
	lat                        [][]int32 // per core: done - now of each Access
}

// spanController times every call into the scheme it wraps. It forwards
// Name and Report, so a run under it reports exactly what the unwrapped
// scheme reports. It does not declare epoch safety: runs under it use the
// serial engine.
type spanController struct {
	inner schemes.Controller
	s     *spans
}

func (c *spanController) Name() string           { return c.inner.Name() }
func (c *spanController) Report() schemes.Report { return c.inner.Report() }

func (c *spanController) Access(core int, now int64, a addr.Addr, write bool) int64 {
	t := time.Now()
	done := c.inner.Access(core, now, a, write)
	c.s.access += time.Since(t)
	c.s.nAccess++
	c.s.lat[core] = append(c.s.lat[core], int32(done-now))
	return done
}

func (c *spanController) WritebackL1(core int, now int64, a addr.Addr) {
	t := time.Now()
	c.inner.WritebackL1(core, now, a)
	c.s.writeback += time.Since(t)
	c.s.nWriteback++
}

func (c *spanController) Tick(now int64) {
	t := time.Now()
	c.inner.Tick(now)
	c.s.tick += time.Since(t)
	c.s.nTick++
}

// The registry builds controllers from spec strings inside cmp.NewSystem,
// so the next traced controller's span sink is handed over through this
// slot: arm it, then build the system.
var (
	armMu sync.Mutex
	armed *spans
)

// armSpans makes the next "Traced(...)" controller record into s.
func armSpans(s *spans) {
	armMu.Lock()
	defer armMu.Unlock()
	armed = s
}

func init() {
	schemes.Register(schemes.Family{
		Name: tracedFamily,
		Canon: func(args []string) ([]string, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("%s wraps exactly one scheme spec, got %d", tracedFamily, len(args))
			}
			inner, err := schemes.Parse(args[0])
			if err != nil {
				return nil, err
			}
			return []string{inner.String()}, nil
		},
		New: func(spec schemes.Spec, cfg config.System) (schemes.Controller, error) {
			armMu.Lock()
			s := armed
			armed = nil
			armMu.Unlock()
			if s == nil {
				return nil, fmt.Errorf("%s: no span sink armed", tracedFamily)
			}
			inner, err := schemes.Build(spec.Args[0], cfg)
			if err != nil {
				return nil, err
			}
			s.lat = make([][]int32, cfg.Cores)
			return &spanController{inner: inner, s: s}, nil
		},
	})
}

// timedRun assembles cfg under scheme over streams and runs it for cycles
// on the serial engine, timing only the run itself.
func timedRun(cfg config.System, scheme string, streams []isa.Stream, cycles int64) (cmp.RunResult, time.Duration, error) {
	sys, err := cmp.NewSystem(cfg, scheme, streams)
	if err != nil {
		return cmp.RunResult{}, 0, err
	}
	t := time.Now()
	res := sys.Run(cycles)
	return res, time.Since(t), nil
}

// spanCost is the host time an empty span measures: the clock reads a
// spanController adds to each call it times. Subtracting it per span
// leaves the wrapped call's own time.
func spanCost() time.Duration {
	const n = 200_000
	best := time.Duration(1 << 62)
	for round := 0; round < 5; round++ {
		var sum time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			sum += time.Since(t)
		}
		best = min(best, sum/n)
	}
	return best
}

// coreLayers is the isolated host time of one simulated core's layers,
// re-run outside the system from the traced run's recorded inputs.
type coreLayers struct {
	replay   time.Duration // replay decode of what the core-only run consumed
	replayN  int64         // instructions the core-only run consumed
	l1       time.Duration
	accesses int64
	core     time.Duration // core-only run, its replay decode included
}

// isolator re-runs one core's decode, L1 and core layers in isolation and
// checks each against the traced run. Its buffers are reused across cores.
type isolator struct {
	cfg    config.System
	cycles int64
	batch  [256]isa.Instr // the core model's decode-ahead depth (cpu.pendBatch)
	pa     []addr.Addr
	write  []bool
	hit    []bool
	lat    []int64
}

// replayDecode pulls n instructions from a fresh cursor over rec in
// 256-instruction batches, as the core model does, and times it.
func (iso *isolator) replayDecode(rec *trace.Recording, n int64) (time.Duration, error) {
	p := rec.Replay()
	t := time.Now()
	for p.Pos() < n {
		p.NextBatch(iso.batch[:])
	}
	d := time.Since(t)
	if p.Pos() != n {
		return 0, fmt.Errorf("isolated replay decode consumed %d instructions, want %d", p.Pos(), n)
	}
	return d, nil
}

// countingStream counts the instructions a live run draws from its
// generator.
type countingStream struct {
	isa.Stream
	n int64
}

func (s *countingStream) Next(in *isa.Instr) {
	s.Stream.Next(in)
	s.n++
}

// genDecode pulls n instructions from gen one at a time, as the core
// model does with a live generator, and times it.
func genDecode(gen isa.Stream, n int64) time.Duration {
	var in isa.Instr
	t := time.Now()
	for i := int64(0); i < n; i++ {
		gen.Next(&in)
	}
	return time.Since(t)
}

// extract decodes the first cr.Instructions instructions of rec, checks
// their kind counts against the run's, and collects core's rebased
// load/store sequence.
func (iso *isolator) extract(rec *trace.Recording, core int, cr cmp.CoreResult) error {
	base := addr.ForCore(core, 0)
	iso.pa, iso.write = iso.pa[:0], iso.write[:0]
	var kinds [isa.NumKinds]int64
	p := rec.Replay()
	for left := cr.Instructions; left > 0; {
		n := p.NextBatch(iso.batch[:])
		if n == 0 {
			return fmt.Errorf("core %d: recording ran dry", core)
		}
		if int64(n) > left {
			n = int(left)
		}
		for i := range iso.batch[:n] {
			in := &iso.batch[i]
			kinds[in.Kind]++
			if in.Kind == isa.KindLoad || in.Kind == isa.KindStore {
				iso.pa = append(iso.pa, in.Addr|base)
				iso.write = append(iso.write, in.Kind == isa.KindStore)
			}
		}
		left -= int64(n)
	}
	if kinds != cr.CPUStats.KindCount {
		return fmt.Errorf("core %d: decoded kind counts %v, the run committed %v", core, kinds, cr.CPUStats.KindCount)
	}
	return nil
}

// l1Pass feeds the extracted access sequence through a fresh L1 exactly
// as cmp's per-core path does, times it, and checks its hit and miss
// counts against the run's.
func (iso *isolator) l1Pass(core int, cr cmp.CoreResult) (time.Duration, error) {
	g := iso.cfg.Mem.L1D
	l1 := cache.MustNew(addr.MustGeometry(g.BlockBytes, g.Sets()), g.Ways)
	iso.hit = slices.Grow(iso.hit[:0], len(iso.pa))[:len(iso.pa)]
	clear(iso.hit)
	owner := int8(core)
	t := time.Now()
	for j, pa := range iso.pa {
		w := iso.write[j]
		if l1.Lookup(pa, w) {
			iso.hit[j] = true
			continue
		}
		l1.Insert(pa, cache.Block{Dirty: w, Owner: owner})
	}
	d := time.Since(t)
	st := l1.Stats()
	if st.Hits != cr.L1Hits || st.Misses != cr.L1Misses {
		return 0, fmt.Errorf("core %d: isolated L1 %d hits / %d misses, the run %d / %d",
			core, st.Hits, st.Misses, cr.L1Hits, cr.L1Misses)
	}
	return d, nil
}

// latencies rebuilds the latency the core saw for each access: the L1 hit
// latency, plus for misses the controller latency the traced run recorded.
func (iso *isolator) latencies(core int, missLat []int32) error {
	l1Lat := int64(iso.cfg.Mem.L1Lat)
	iso.lat = iso.lat[:0]
	m := 0
	for _, h := range iso.hit {
		if h {
			iso.lat = append(iso.lat, l1Lat)
			continue
		}
		if m == len(missLat) {
			return fmt.Errorf("core %d: more L1 misses than recorded controller accesses (%d)", core, len(missLat))
		}
		iso.lat = append(iso.lat, l1Lat+int64(missLat[m]))
		m++
	}
	if m != len(missLat) {
		return fmt.Errorf("core %d: %d L1 misses, %d recorded controller accesses", core, m, len(missLat))
	}
	return nil
}

// corePass drives a fresh core model quantum by quantum over a fresh
// replay of rec, answering each access with its rebuilt latency, times it
// and checks its statistics against the run's exactly. It returns the
// time and the number of instructions the replay served.
func (iso *isolator) corePass(rec *trace.Recording, core int, cr cmp.CoreResult) (time.Duration, int64, error) {
	c := cpu.NewCore(iso.cfg.Core)
	p := rec.Replay()
	lat := iso.lat
	k := 0
	var over bool
	mem := func(now int64, _ addr.Addr, _ bool) int64 {
		if k == len(lat) {
			over = true
			return now + 1
		}
		v := now + lat[k]
		k++
		return v
	}
	q := iso.cfg.Quantum
	t := time.Now()
	for clock := int64(0); clock < iso.cycles; {
		clock = min(clock+q, iso.cycles)
		c.Run(clock, p, mem)
	}
	d := time.Since(t)
	if over {
		return 0, 0, fmt.Errorf("core %d: core-only run made more accesses than the run's %d", core, len(lat))
	}
	if k != len(lat) {
		return 0, 0, fmt.Errorf("core %d: core-only run made %d accesses, the run %d", core, k, len(lat))
	}
	if st := c.Stats(); st != cr.CPUStats {
		return 0, 0, fmt.Errorf("core %d: core-only cpu.Stats %+v, the run %+v", core, st, cr.CPUStats)
	}
	return d, p.Pos(), nil
}

// isolate runs every isolated layer of one core. rec holds the core's
// instruction stream and missLat its recorded controller latencies.
func (iso *isolator) isolate(rec *trace.Recording, core int, cr cmp.CoreResult, missLat []int32) (coreLayers, error) {
	var out coreLayers
	if err := iso.extract(rec, core, cr); err != nil {
		return out, err
	}
	var err error
	if out.l1, err = iso.l1Pass(core, cr); err != nil {
		return out, err
	}
	out.accesses = int64(len(iso.pa))
	if err := iso.latencies(core, missLat); err != nil {
		return out, err
	}
	var served int64
	if out.core, served, err = iso.corePass(rec, core, cr); err != nil {
		return out, err
	}
	// The core-only run consumes the same decode-ahead batches as any
	// replayed run; its replay decode is timed alone and subtracted later.
	if out.replay, err = iso.replayDecode(rec, served); err != nil {
		return out, err
	}
	out.replayN = served
	return out, nil
}
