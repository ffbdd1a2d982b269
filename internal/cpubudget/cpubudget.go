// Package cpubudget is the process-wide pool of simulation tokens that
// keeps sweep-level parallelism (internal/sweep) from oversubscribing the
// host. It holds GOMAXPROCS tokens, read at each acquisition. A sweep
// worker holds one token for the duration of each job, and Acquire blocks
// while every token is out, so a Parallelism above GOMAXPROCS degrades to
// GOMAXPROCS concurrent simulations instead of time-slicing more of them.
// The pool changes scheduling and wall-clock only, never results or
// checkpoint bytes.
//
// Every running simulation holds exactly one token, so the in-use count is
// the process's number of concurrent simulations and Peak is its
// high-water mark.
package cpubudget

import (
	"runtime"
	"sync"
)

var (
	mu    sync.Mutex
	cond  = sync.NewCond(&mu)
	inUse int
	peak  int
)

// Acquire blocks until a token is free and takes it. Pair with Release.
func Acquire() {
	mu.Lock()
	defer mu.Unlock()
	for inUse >= runtime.GOMAXPROCS(0) {
		cond.Wait()
	}
	inUse++
	if inUse > peak {
		peak = inUse
	}
}

// Release returns a token taken by Acquire.
func Release() {
	mu.Lock()
	defer mu.Unlock()
	if inUse == 0 {
		// Releasing more than was acquired is a caller accounting bug that
		// would silently widen every future budget; fail loudly instead.
		panic("cpubudget: Release without a matching Acquire")
	}
	inUse--
	cond.Signal()
}

// Peak returns the high-water mark of in-use tokens since the last
// ResetPeak, that is the peak number of concurrent simulations.
func Peak() int {
	mu.Lock()
	defer mu.Unlock()
	return peak
}

// ResetPeak clears the high-water mark down to the current in-use count.
func ResetPeak() {
	mu.Lock()
	defer mu.Unlock()
	peak = inUse
}
