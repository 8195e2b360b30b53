package main

import (
	"fmt"
	"testing"

	"gsim/internal/core"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/gen"
	"gsim/internal/harness"
	"gsim/internal/ir"
)

// TestRefCountSummary pins the node-level line on a graph whose counts are
// known: one output nobody reads, one node per reference count 1, 2 and 3,
// the last of them an extracted one; registers and inputs are not counted.
func TestRefCountSummary(t *testing.T) {
	b := ir.NewBuilder("refs")
	a := b.Input("a", 8)
	one := b.Comb("one", b.Not(b.R(a)))
	two := b.Comb("two", b.Not(b.R(one)))
	three := b.Comb("_cse0", b.Xor(b.R(two), b.R(two)))
	r := b.Reg("r", 8)
	b.SetNext(r, b.And(b.R(three), b.R(three)))
	b.Output("o", b.Or(b.R(three), b.R(r)))
	want := "comb=4 by refs: 0=1 1=1 2=1 3+=1  cse=1 (25.0% of comb)"
	if got := refCountSummary(b.G); got != want {
		t.Fatalf("refCountSummary:\n got %s\nwant %s", got, want)
	}
}

// TestScheduleSummary: the verilator-2T row reports its merged-level
// schedule through the engine's accessor, and the one-worker rows report
// none.
func TestScheduleSummary(t *testing.T) {
	d := harness.Synthetic(gen.StuCoreLike())
	for _, c := range []struct {
		cfg   core.Config
		multi bool
	}{{core.Verilator(), false}, {core.VerilatorMT(2), true}, {core.GSIM(), false}} {
		sys, _, err := harness.BuildSystem(d, "coremark", c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := scheduleSummary(sys.Sim.Shard())
		sys.Close()
		if !c.multi {
			if got != "" {
				t.Fatalf("%s: one-worker row reports a schedule %q", c.cfg.Name, got)
			}
			continue
		}
		var imb float64
		var orig, levels, barriers int
		if _, err := fmt.Sscanf(got, " imbalance=%f levels=%d->%d barriers/cyc=%d", &imb, &orig, &levels, &barriers); err != nil ||
			levels < 1 || levels > orig || barriers != levels {
			t.Fatalf("%s: schedule %q (%v), want levels=a->b with 1 <= b <= a", c.cfg.Name, got, err)
		}
		t.Logf("%s:%s", c.cfg.Name, got)
	}
}

// TestRegisterSummary: the full-cycle plan's register line, and on the
// synthetic profile under the Verilator preset every register updates in
// place (rocket-like: 12 529 of 12 529; stucore-like under -short).
func TestRegisterSummary(t *testing.T) {
	if got, want := registerSummary(engine.RegPlacement{InPlace: 2, Regs: 5, Cyclic: 2, Wide: 1}),
		"registers in place: 2 of 5 (cycles 2, wide 1)"; got != want {
		t.Fatalf("registerSummary: %q, want %q", got, want)
	}
	prof := gen.RocketLike()
	if testing.Short() {
		prof = gen.StuCoreLike()
	}
	src, _, err := harness.Synthetic(prof).Build(harness.WorkloadCoreMark)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := core.CompileDesign(src, core.Verilator())
	if err != nil {
		t.Fatal(err)
	}
	rp := cd.Plan().(*engine.FullCyclePlan).Registers()
	if rp.Regs == 0 || rp.InPlace != rp.Regs || rp.Cyclic != 0 || rp.Wide != 0 {
		t.Fatalf("%s: %s, want every register in place", prof.Name, registerSummary(rp))
	}
	t.Logf("%s: %s", prof.Name, registerSummary(rp))
}

// TestFootprintIsThePlans: the footprint line compiles the chains the
// design's engine plan runs (designChains), so its stream is the plan's
// kernel for kernel, on the synthetic profile and on regsBetween, where the
// full-cycle sweep's order fuses a window that instruction ID order splits.
func TestFootprintIsThePlans(t *testing.T) {
	src, _, err := harness.Synthetic(gen.StuCoreLike()).Build(harness.WorkloadCoreMark)
	if err != nil {
		t.Fatal(err)
	}
	between, err := firrtl.Load(regsBetweenFIRRTL)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*ir.Graph{"stucore-like": src, "regs-between": between} {
		for _, cfg := range []core.Config{core.GSIM(), core.Verilator()} {
			cd, err := core.CompileDesign(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			k, r, b := footprint(cd)
			pk, pr, pb := cd.Plan().Footprint()
			if k != pk || r != pr || b != pb {
				t.Errorf("%s/%s: footprint kernels=%d records=%d bytes=%d, plan's stream %d %d %d",
					name, cfg.Name, k, r, b, pk, pr, pb)
			}
		}
	}
}

// regsBetweenFIRRTL numbers its registers between p and q, which reads p:
// the full-cycle sweep runs the registers last, so p and q are adjacent and
// fuse there, and not in ID order.
const regsBetweenFIRRTL = `circuit F :
  module F :
    input clock : Clock
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<8>
    output p : UInt<8>
    output q : UInt<8>

    reg r : UInt<8>, clock
    reg s : UInt<8>, clock

    node t = and(a, b)
    r <= xor(t, r)
    s <= or(t, s)
    o <= t
    p <= xor(r, s)
    q <= or(p, a)
`

// TestLayoutSummary pins the layout line's program counts on the
// rocket-like profile as built: under the Verilator preset inlining copies
// each unit's XOR chain into its ALU node, and value numbering computes the
// copies once (stucore-like under -short, where only the relation holds).
func TestLayoutSummary(t *testing.T) {
	prof := gen.RocketLike()
	if testing.Short() {
		prof = gen.StuCoreLike()
	}
	g := gen.BuildProfile(prof)
	want := map[string][2]int{"verilator": {57600, 72070}, "gsim": {960, 64295}} // reused, instrs
	for _, cfg := range []core.Config{core.Verilator(), core.GSIM()} {
		cd, err := core.CompileDesign(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		line := layoutSummary(cd)
		var state, next, temps, regions, instrs, reused int
		if _, err := fmt.Sscanf(line, "state=%d next=%d temps=%d regions=%d instrs=%d reused=%d",
			&state, &next, &temps, &regions, &instrs, &reused); err != nil {
			t.Fatalf("%s: layout %q: %v", cfg.Name, line, err)
		}
		if instrs != len(cd.Prog.Instrs) || reused != cd.Prog.Reused {
			t.Fatalf("%s: layout %q, program has %d instrs, %d reused", cfg.Name, line, len(cd.Prog.Instrs), cd.Prog.Reused)
		}
		if w := want[cfg.Name]; !testing.Short() && (reused != w[0] || instrs != w[1]) {
			t.Errorf("%s %s: reused=%d instrs=%d, want %d and %d", prof.Name, cfg.Name, reused, instrs, w[0], w[1])
		}
		t.Logf("%s %s: %s", prof.Name, cfg.Name, line)
	}
}
