package engine

import (
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/ir"
	"gsim/internal/partition"
)

// buildCounter returns a compiled enable-gated counter design.
func buildCounter(t *testing.T) (*emit.Program, *ir.Graph, *ir.Node, *ir.Node) {
	t.Helper()
	b := ir.NewBuilder("cnt")
	en := b.Input("en", 1)
	r := b.Reg("c", 8)
	b.SetNext(r, b.Mux(b.R(en), b.AddW(b.R(r), b.C(8, 1), 8), b.R(r)))
	b.Output("o", b.R(r))
	if err := b.G.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, err := emit.Compile(b.G)
	if err != nil {
		t.Fatal(err)
	}
	return p, b.G, b.G.FindNode("en"), b.G.FindNode("c")
}

func TestFullCycleCounter(t *testing.T) {
	p, _, en, c := buildCounter(t)
	sim := NewFullCycle(p, 1, EvalKernel)
	sim.Poke(en.ID, bitvec.FromUint64(1, 1))
	StepN(sim, 5)
	if got := sim.Peek(c.ID).Uint64(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	sim.Poke(en.ID, bitvec.New(1))
	StepN(sim, 3)
	if got := sim.Peek(c.ID).Uint64(); got != 5 {
		t.Fatalf("gated counter moved to %d", got)
	}
	sim.Reset()
	if got := sim.Peek(c.ID).Uint64(); got != 0 {
		t.Fatalf("reset left counter at %d", got)
	}
}

func activityFor(t *testing.T, p *emit.Program, g *ir.Graph, kind partition.Kind, cfg ActivityConfig) *Activity {
	t.Helper()
	part := partition.Build(g, kind, 4)
	return NewActivity(p, part, cfg, 1, EvalKernel)
}

func TestActivitySkipsIdleWork(t *testing.T) {
	p, g, en, c := buildCounter(t)
	sim := activityFor(t, p, g, partition.Enhanced, ActivityConfig{MultiBitCheck: true, Activation: ActCostModel})
	// Cycle with enable off and nothing changing: after the first full
	// evaluation, evals per cycle must drop to ~zero.
	StepN(sim, 2)
	evalsBefore := sim.Stats().NodeEvals
	StepN(sim, 10)
	idleEvals := sim.Stats().NodeEvals - evalsBefore
	if idleEvals != 0 {
		t.Fatalf("idle circuit evaluated %d nodes over 10 cycles", idleEvals)
	}
	// Enabling re-activates and counts.
	sim.Poke(en.ID, bitvec.FromUint64(1, 1))
	StepN(sim, 5)
	if got := sim.Peek(c.ID).Uint64(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if sim.Stats().ActivityFactor() >= 1 {
		t.Fatal("activity factor should be below 1")
	}
}

func TestActivityModesAgree(t *testing.T) {
	for _, kind := range []partition.Kind{partition.None, partition.MFFC, partition.Enhanced} {
		for _, cfg := range []ActivityConfig{
			{Activation: ActBranch},
			{Activation: ActBranchless},
			{MultiBitCheck: true, Activation: ActCostModel},
		} {
			p, g, en, c := buildCounter(t)
			sim := activityFor(t, p, g, kind, cfg)
			sim.Poke(en.ID, bitvec.FromUint64(1, 1))
			StepN(sim, 7)
			sim.Poke(en.ID, bitvec.New(1))
			StepN(sim, 2)
			if got := sim.Peek(c.ID).Uint64(); got != 7 {
				t.Fatalf("kind %v cfg %+v: counter = %d, want 7", kind, cfg, got)
			}
		}
	}
}

// TestParallelMatchesFullCycle: the multi-worker full-cycle schedule tracks
// the one-worker sweep.
func TestParallelMatchesFullCycle(t *testing.T) {
	for _, threads := range []int{2, 3} {
		p1, _, en1, c1 := buildCounter(t)
		full := NewFullCycle(p1, 1, EvalKernel)
		p2, _, en2, c2 := buildCounter(t)
		par := NewFullCycle(p2, threads, EvalKernel)
		defer par.Close()
		full.Poke(en1.ID, bitvec.FromUint64(1, 1))
		par.Poke(en2.ID, bitvec.FromUint64(1, 1))
		for i := 0; i < 20; i++ {
			full.Step()
			par.Step()
			if a, b := full.Peek(c1.ID).Uint64(), par.Peek(c2.ID).Uint64(); a != b {
				t.Fatalf("threads=%d cycle %d: %d vs %d", threads, i, a, b)
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	p, g, en, _ := buildCounter(t)
	sim := activityFor(t, p, g, partition.Enhanced, ActivityConfig{MultiBitCheck: true, Activation: ActCostModel})
	sim.Poke(en.ID, bitvec.FromUint64(1, 1))
	StepN(sim, 10)
	st := sim.Stats()
	if st.Cycles != 10 {
		t.Fatalf("cycles = %d", st.Cycles)
	}
	if st.NodeEvals == 0 || st.Examinations == 0 {
		t.Fatalf("counters not accumulating: %+v", st)
	}
	if st.RegCommits == 0 {
		t.Fatal("register commits not counted")
	}
}

// TestResetSlowPath builds a register population behind one reset signal and
// checks that the extracted slow path forces init values and that the
// ResetFastSkips counter reflects the per-register checks avoided.
func TestResetSlowPath(t *testing.T) {
	b := ir.NewBuilder("rst")
	rst := b.Input("reset", 1)
	d := b.Input("d", 8)
	var regs []*ir.Node
	for i := 0; i < 6; i++ {
		r := b.RegInit("r"+string(rune('0'+i)), 8, bitvec.FromUint64(8, uint64(i+1)))
		// Pre-extracted form: fast path without the reset mux.
		b.SetNext(r, b.AddW(b.R(d), b.C(8, uint64(i)), 8))
		r.ResetSig = rst
		regs = append(regs, r)
	}
	sum := b.R(regs[0])
	for _, r := range regs[1:] {
		sum = b.Xor(sum, b.R(r))
	}
	b.Output("o", sum)
	if err := b.G.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, err := emit.Compile(b.G)
	if err != nil {
		t.Fatal(err)
	}
	part := partition.Build(b.G, partition.Enhanced, 4)
	sim := NewActivity(p, part, ActivityConfig{MultiBitCheck: true, Activation: ActCostModel}, 1, EvalKernel)

	dn := b.G.FindNode("d")
	sim.Poke(dn.ID, bitvec.FromUint64(8, 0x40))
	StepN(sim, 2)
	r0 := b.G.FindNode("r0")
	if got := sim.Peek(r0.ID).Uint64(); got != 0x40 {
		t.Fatalf("r0 = %#x, want 0x40", got)
	}
	// Assert reset: registers return to init at end of cycle.
	sim.Poke(b.G.FindNode("reset").ID, bitvec.FromUint64(1, 1))
	sim.Step()
	if got := sim.Peek(r0.ID).Uint64(); got != 1 {
		t.Fatalf("r0 after reset = %#x, want 1 (init)", got)
	}
	// Deassert: normal operation must resume the very next cycle.
	sim.Poke(b.G.FindNode("reset").ID, bitvec.New(1))
	sim.Poke(dn.ID, bitvec.FromUint64(8, 0x23))
	sim.Step()
	if got := sim.Peek(r0.ID).Uint64(); got != 0x23 {
		t.Fatalf("r0 after deassert = %#x, want 0x23", got)
	}
	if sim.Stats().ResetFastSkips == 0 {
		t.Fatal("reset fast-path skips not counted")
	}
}

func TestReferenceAgainstFullCycle(t *testing.T) {
	p, g, en, c := buildCounter(t)
	full := NewFullCycle(p, 1, EvalKernel)
	ref, err := NewReference(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		v := bitvec.FromUint64(1, uint64(i%3)&1)
		full.Poke(en.ID, v)
		ref.Poke(en.ID, v)
		full.Step()
		ref.Step()
		if a, b := full.Peek(c.ID), ref.Peek(c.ID); !a.EqValue(b) {
			t.Fatalf("cycle %d: fullcycle %s vs reference %s", i, a, b)
		}
	}
}
