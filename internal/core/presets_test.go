package core

import (
	"testing"

	"gsim/internal/engine"
	"gsim/internal/gen"
	"gsim/internal/ir"
	"gsim/internal/partition"
)

func exprRefTo(n *ir.Node) *ir.Expr { return ir.Ref(n) }

// TestPresetShapes pins the preset configurations to the simulators they
// model, so a refactor cannot silently turn "essent" into something else.
func TestPresetShapes(t *testing.T) {
	v := Verilator()
	if v.Engine != EngineFullCycle || !v.Opt.Simplify || !v.Opt.Inline || v.Opt.BitSplit {
		t.Fatalf("verilator preset drifted: %+v", v)
	}
	mt := VerilatorMT(4)
	if mt.Engine != EngineFullCycle || mt.Threads != 4 || mt.Name != "verilator-4T" {
		t.Fatalf("verilator-MT preset drifted: %+v", mt)
	}
	a := Arcilator()
	if a.Engine != EngineFullCycle || !a.Opt.Extract {
		t.Fatalf("arcilator preset drifted: %+v", a)
	}
	e := Essent()
	if e.Engine != EngineActivity || e.Partition != partition.MFFC ||
		e.Activity.Activation != engine.ActBranchless || e.Activity.MultiBitCheck {
		t.Fatalf("essent preset drifted: %+v", e)
	}
	g := GSIM()
	if g.Engine != EngineActivity || g.Partition != partition.Enhanced ||
		!g.Activity.MultiBitCheck || g.Activity.Activation != engine.ActCostModel ||
		!g.Opt.BitSplit || !g.Opt.ResetOpt {
		t.Fatalf("gsim preset drifted: %+v", g)
	}
	gmt := GSIMMT(4)
	if gmt.Engine != EngineActivity || gmt.Threads != 4 || gmt.Name != "gsim-4T" ||
		gmt.Partition != partition.Enhanced || !gmt.Activity.MultiBitCheck ||
		gmt.Activity.Activation != engine.ActCostModel || !gmt.Opt.BitSplit {
		t.Fatalf("gsimmt preset drifted: %+v", gmt)
	}
}

// TestBuildDoesNotMutateInput verifies the clone contract: building many
// configurations from one graph leaves the input untouched.
func TestBuildDoesNotMutateInput(t *testing.T) {
	g := gen.Random(3, gen.DefaultRandomConfig())
	before := g.ComputeStats()
	for _, cfg := range []Config{Verilator(), GSIM()} {
		sys, err := Build(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Close()
	}
	after := g.ComputeStats()
	if before != after {
		t.Fatalf("input graph mutated by Build: %+v -> %+v", before, after)
	}
}

// TestBuildRejectsCombinationalCycle: a broken graph must fail cleanly.
func TestBuildRejectsCombinationalCycle(t *testing.T) {
	g := gen.Random(0, gen.DefaultRandomConfig())
	// Introduce a cycle between the first two combinational nodes.
	var combs []int
	for _, n := range g.Nodes {
		if n != nil && n.Kind == ir.KindComb {
			combs = append(combs, n.ID)
			if len(combs) == 2 {
				break
			}
		}
	}
	a, b := g.Nodes[combs[0]], g.Nodes[combs[1]]
	a.Expr = exprRefTo(b)
	a.Width = b.Width
	b.Expr = exprRefTo(a)
	b.Width = a.Width
	if _, err := Build(g, GSIM()); err == nil {
		t.Fatal("expected combinational-cycle error")
	}
}
