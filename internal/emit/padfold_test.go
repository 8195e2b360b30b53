package emit_test

import (
	"math/rand"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/ir"
)

// TestFoldedPadConsumersLockstep feeds a folded pad (see emit's unpad) to
// every consumer that reads its operand's width — cat's shift, andr's mask,
// sext's and slt's sign bit, a memory read's address, dshl — and runs the
// fused kernels, the pre-fusion kernels and the interpreter against the
// graph-level reference model, which evaluates the pads for real.
func TestFoldedPadConsumersLockstep(t *testing.T) {
	b := ir.NewBuilder("padfold")
	a, c, s := b.Input("a", 5), b.Input("c", 7), b.Input("s", 3)
	pad := func(n *ir.Node, w int) *ir.Expr { return b.Fit(b.R(n), w) }
	m := b.Mem("m", 16, 8)
	b.MemWrite("m.w", m, pad(s, 4), b.Fit(b.R(c), 8), b.Bit(b.R(a), 0))
	b.Output("o_cat", b.Cat(pad(a, 12), b.R(c)))
	b.Output("o_cat_lo", b.Cat(b.R(c), pad(a, 12)))
	b.Output("o_andr", b.AndR(pad(a, 8)))
	b.Output("o_andr_same", b.AndR(pad(a, 5)))
	b.Output("o_sext", b.SExt(pad(a, 9), 16))
	b.Output("o_slt", b.SLt(pad(a, 7), b.R(c)))
	b.Output("o_sgeq", b.SGeq(b.R(c), pad(a, 7)))
	b.MarkOutput(b.MemRead("o_mem", m, pad(s, 4)))
	b.Output("o_dshl", b.DshlFull(pad(a, 9), pad(s, 4)))
	b.Output("o_wide", b.Not(pad(a, 100)))
	acc := b.Reg("acc", 12)
	b.SetNext(acc, pad(c, 12)) // a root pad into a register's next-value slot
	b.Output("o_acc", b.R(acc))

	g := b.G
	if err := g.SortTopological(); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := emit.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	// The copies left are o_wide's 5->100 pad and the roots that are a bare
	// reference once unpadded (acc's next value, the write port's operands):
	// none lands in a temporary.
	rootSlot := map[int32]bool{}
	for id := range g.Nodes {
		for _, off := range []int32{p.Off[id], p.NextOff[id], p.WAddrOff[id], p.WDataOff[id], p.WEnOff[id]} {
			rootSlot[off] = true
		}
	}
	for _, in := range p.Instrs {
		if in.Op == emit.CCopy && in.DW <= 64 && !rootSlot[in.D] {
			t.Fatalf("a one-word pad compiled to an instruction: %+v", in)
		}
	}
	ref, err := engine.NewReference(g)
	if err != nil {
		t.Fatal(err)
	}
	sims := []engine.Sim{
		engine.NewFullCycle(p, 1, engine.EvalKernel),
		engine.NewFullCycle(p, 1, engine.EvalKernelNoFuse),
		engine.NewFullCycle(p, 1, engine.EvalInterp),
	}
	rng := rand.New(rand.NewSource(20))
	for cycle := 0; cycle < 300; cycle++ {
		for _, in := range []*ir.Node{a, c, s} {
			v := bitvec.FromUint64(in.Width, rng.Uint64())
			ref.Poke(in.ID, v)
			for _, sim := range sims {
				sim.Poke(in.ID, v)
			}
		}
		ref.Step()
		for si, sim := range sims {
			sim.Step()
			for _, n := range g.Nodes {
				if !n.IsOutput {
					continue
				}
				if want, got := ref.Peek(n.ID), sim.Peek(n.ID); !want.EqValue(got) {
					t.Fatalf("cycle %d, sim %d, %s: reference %s, got %s", cycle, si, n.Name, want, got)
				}
			}
		}
	}
}
