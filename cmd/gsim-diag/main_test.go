package main

import (
	"fmt"
	"testing"

	"gsim/internal/core"
	"gsim/internal/engine"
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

// TestScheduleSummary: the verilator-2T and gsim-2T rows report their
// merged-level schedule through the engines' shared accessor, and the
// one-worker rows report none.
func TestScheduleSummary(t *testing.T) {
	d := harness.Synthetic(gen.StuCoreLike())
	for _, c := range []struct {
		cfg   core.Config
		multi bool
	}{{core.Verilator(), false}, {core.VerilatorMT(2), true}, {core.GSIM(), false}, {core.GSIMMT(2), true}} {
		sys, _, err := harness.BuildSystemForDiag(d, "coremark", c.cfg)
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
