package emit_test

import (
	"math/rand"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/ir"
)

// TestValueNumberingLockstep compiles nodes that repeat subtrees — what
// inlining leaves behind — and runs the fused kernels, the pre-fusion
// kernels, the interpreter and two workers against the graph-level
// reference model, which shares no code with the emitter and evaluates
// every copy for real. The shapes: one operand read at two widths through
// folded pads and copied at two widths through word-adding ones, one bits
// operand under different and equal ranges, equal mux arms, a mux whose
// select and arms share a subtree and two muxes that differ in the false
// arm alone, commuted operands (not canonicalized: computed twice), a
// register's next value, and a memory write port whose address, data and
// enable roots share one.
func TestValueNumberingLockstep(t *testing.T) {
	b := ir.NewBuilder("repeat")
	a, c, s, w := b.Input("a", 6), b.Input("c", 6), b.Input("s", 1), b.Input("w", 90)
	x := func() *ir.Expr { return b.Xor(b.R(a), b.R(c)) }
	y := func() *ir.Expr { return b.Add(b.R(w), b.R(w)) }
	b.Output("o_pad", b.Cat(b.Fit(x(), 8), b.Fit(x(), 12)))
	b.Output("o_padw", b.Xor(b.Fit(x(), 100), b.Fit(b.Not(b.Fit(x(), 70)), 100)))
	b.Output("o_bits", b.CatAll(b.Bits(y(), 7, 0), b.Bits(y(), 15, 8), b.Bits(y(), 7, 0), b.Bits(y(), 90, 60)))
	b.Output("o_mux", b.Mux(b.R(s), b.Add(b.R(a), b.R(c)), b.Add(b.R(a), b.R(c))))
	b.Output("o_muxsel", b.Mux(b.OrR(x()), b.Not(x()), x()))
	b.Output("o_muxc", b.Cat(b.Mux(b.R(s), x(), b.R(a)), b.Mux(b.R(s), x(), b.R(c))))
	b.Output("o_comm", b.Xor(b.Add(b.R(a), b.R(c)), b.Add(b.R(c), b.R(a))))
	r := b.Reg("r", 6)
	b.SetNext(r, b.Xor(b.And(b.R(r), x()), b.Or(b.And(b.R(r), x()), b.R(a))))
	b.Output("o_r", b.R(r))
	m := b.Mem("m", 16, 8)
	b.MemWrite("m.w", m, b.Bits(x(), 3, 0), b.Cat(b.Bits(x(), 1, 0), x()), b.OrR(b.And(x(), b.R(c))))
	b.MarkOutput(b.MemRead("o_mem", m, b.Bits(x(), 5, 2)))

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
	// Repeats per node: o_pad 1 (x), o_padw 1 (x; the 100- and 70-bit
	// copies differ in width), o_bits 4 (y three times, bits 7..0 once),
	// o_mux 1, o_muxsel 2, o_muxc 1 (x), o_comm 0, r 2 (x and the and), m.w
	// 3 (x in data twice and in the enable).
	if p.Reused != 15 {
		t.Fatalf("reused %d subexpressions, want 15", p.Reused)
	}
	for _, n := range g.Nodes {
		r := p.Code[n.ID]
		seen := map[emit.Instr]bool{}
		for _, in := range p.Instrs[r.Start:r.End] {
			in.D = 0
			if seen[in] {
				t.Fatalf("node %s computes %+v twice", n.Name, in)
			}
			seen[in] = true
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
		engine.NewFullCycle(p, 2, engine.EvalKernel),
	}
	defer sims[3].Close()
	rng := rand.New(rand.NewSource(39))
	for cycle := 0; cycle < 300; cycle++ {
		for _, in := range []*ir.Node{a, c, s, w} {
			v := bitvec.FromUint64(in.Width, rng.Uint64())
			if in.Width > 64 {
				v = bitvec.FromWords(in.Width, []uint64{rng.Uint64(), rng.Uint64()})
			}
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
