package engine

import (
	"gsim/internal/bitvec"
	"gsim/internal/emit"
)

// FullCycle evaluates every node every cycle in topological order — the
// paper's Listing 1, the Verilator scheduling model. Because the compiler
// emits instructions in topological node order, one Step is a single linear
// sweep over the whole instruction stream followed by the register and
// memory commit.
type FullCycle struct {
	base
	// stream holds the whole instruction stream compiled as one chain
	// (width classes, superinstructions under EvalKernel) for this engine's
	// machine. nil under EvalInterp, which sweeps the reference interpreter
	// instead.
	stream     *emit.Stream
	chain      emit.Span
	memScratch []int32
}

// NewFullCycle builds a full-cycle engine for a compiled program. The
// program's graph must have been compacted in topological order (core.Build
// guarantees this). In the kernel modes the whole instruction stream is one
// kernel sweep, fused unless mode is EvalKernelNoFuse; EvalInterp selects
// the reference interpreter.
func NewFullCycle(p *emit.Program, mode EvalMode) *FullCycle {
	f := &FullCycle{base: newBase(p)}
	if mode != EvalInterp {
		f.stream = emit.NewStream(f.m)
		f.chain = f.stream.Append(p.Instrs, mode == EvalKernel)
		f.stream.Trim()
	}
	return f
}

// Reset restores complete power-on state (image, memories, counters).
func (f *FullCycle) Reset() {
	f.resetBase()
}

// Close is a no-op: the serial engine owns no goroutines. It exists so every
// engine satisfies the same lifecycle (session pools Close uniformly).
func (f *FullCycle) Close() {}

// Step simulates one cycle.
func (f *FullCycle) Step() {
	f.stats.Cycles++
	if f.stream != nil {
		f.stream.Run(f.chain)
	} else {
		f.m.Exec(0, int32(len(f.m.Prog.Instrs)))
	}
	f.stats.NodeEvals += uint64(len(f.coded))
	f.countInstrs(uint64(len(f.m.Prog.Instrs)))
	f.commitRegs()
	f.memScratch = f.commitWrites(f.memScratch[:0])
	f.applyResets(nil)
	f.sampleTrace()
}

// Poke sets an input value.
func (f *FullCycle) Poke(nodeID int, v bitvec.BV) {
	f.m.Poke(nodeID, v)
}
