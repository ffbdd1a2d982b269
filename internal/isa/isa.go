// Package isa defines the minimal synthetic instruction set exchanged
// between the workload generators (internal/trace) and the core timing
// model (internal/cpu). It exists as its own package so that neither side
// depends on the other.
package isa

import (
	"fmt"

	"snug/internal/addr"
)

// Kind is the instruction class; it selects the functional-unit latency in
// the core model.
type Kind uint8

const (
	// KindALU is a 1-cycle integer operation.
	KindALU Kind = iota
	// KindFPU is a pipelined floating-point operation.
	KindFPU
	// KindMult is an integer multiply.
	KindMult
	// KindDiv is an integer/FP divide (long latency, unpipelined).
	KindDiv
	// KindLoad reads memory; its latency comes from the cache hierarchy.
	KindLoad
	// KindStore writes memory; stores retire through the store buffer and
	// do not stall commit, but still update cache state.
	KindStore
	// KindBranch is a conditional branch resolved at execute.
	KindBranch
	// KindCall pushes a return address on the RAS.
	KindCall
	// KindReturn pops the RAS; a mismatch costs a misprediction.
	KindReturn

	numKinds
)

// String returns the kind's mnemonic.
func (k Kind) String() string {
	switch k {
	case KindALU:
		return "alu"
	case KindFPU:
		return "fpu"
	case KindMult:
		return "mult"
	case KindDiv:
		return "div"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	case KindCall:
		return "call"
	case KindReturn:
		return "return"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NumKinds is the number of instruction kinds.
const NumKinds = int(numKinds)

// Instr is one dynamic instruction. Addr is meaningful for loads/stores;
// Taken and Target for branches/calls/returns; DepPrev marks a register
// dependence on the previous instruction's result (serializing their
// execution), which the generators emit to model dependence chains.
type Instr struct {
	Kind    Kind
	PC      uint64
	Addr    addr.Addr
	Taken   bool
	Target  uint64
	DepPrev bool
}

// Stream produces an endless dynamic instruction stream. Implementations
// must be deterministic for a fixed construction seed.
type Stream interface {
	// Next fills in with the next dynamic instruction.
	Next(in *Instr)
	// Name identifies the workload (e.g. the SPEC benchmark modeled).
	Name() string
}

// BatchStream is an optional Stream extension for consumers that can take
// instructions in bulk: one NextBatch call replaces len(dst) interface
// dispatches, and implementations keep their cursor state in registers
// across the batch. The core model's run loop uses it when available
// (trace replays and the live generators implement it); semantics are
// identical to calling Next len(dst) times.
type BatchStream interface {
	Stream
	// NextBatch fills dst with the next instructions of the stream and
	// returns how many were written (len(dst) for the endless streams).
	NextBatch(dst []Instr) int
}
