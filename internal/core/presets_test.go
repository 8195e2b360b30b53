package core

import (
	"strings"
	"testing"

	"gsim/internal/engine"
	"gsim/internal/firrtl"
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

// TestPresetResolvesEngineAndThreads pins the one resolver the command line
// and the session spec share: every engine takes 0 and 1 workers, only
// verilator takes more, and each refusal names the "threads" field.
func TestPresetResolvesEngineAndThreads(t *testing.T) {
	for _, c := range []struct {
		name    string
		threads int
		want    string // the resolved preset's name; "" for a refusal
		workers int
	}{
		{"", 0, "gsim", 0},
		{"gsim", 1, "gsim", 0},
		{"verilator", 0, "verilator", 0},
		{"verilator", 1, "verilator", 0},
		{"verilator", 2, "verilator-2T", 2},
		{"verilator", MaxThreads, "verilator-64T", MaxThreads},
		{"essent", 1, "essent", 0},
		{"arcilator", 1, "arcilator", 0},
		{"gsim", 2, "", 0},
		{"essent", 2, "", 0},
		{"arcilator", 4, "", 0},
		{"verilator", -1, "", 0},
		{"verilator", MaxThreads + 1, "", 0},
	} {
		cfg, err := Preset(c.name, c.threads)
		if c.want == "" {
			if err == nil || !strings.Contains(err.Error(), `"threads"`) {
				t.Errorf("Preset(%q, %d) = %s, %v; want a refusal naming \"threads\"", c.name, c.threads, cfg.Name, err)
			}
			continue
		}
		if err != nil || cfg.Name != c.want || cfg.Threads != c.workers {
			t.Errorf("Preset(%q, %d) = %s (threads %d), %v; want %s (threads %d)", c.name, c.threads, cfg.Name, cfg.Threads, err, c.want, c.workers)
		}
	}
	if _, err := Preset("nope", 0); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("Preset of an unknown engine returned %v, want a refusal naming it", err)
	}
}

// TestCompileDesignRefusesMultiWorkerActivity: the essential-signal engine
// runs one worker, so a configuration asking it for more is refused by name
// before anything compiles, while one worker still builds.
func TestCompileDesignRefusesMultiWorkerActivity(t *testing.T) {
	g := cacheDesign(t, 0)
	for _, threads := range []int{2, 4} {
		cfg := Config{Engine: EngineActivity, Threads: threads}
		if d, err := CompileDesign(g, cfg); err == nil || !strings.Contains(err.Error(), `"threads"`) {
			t.Fatalf("CompileDesign(activity, %d workers) = %v, %v; want a refusal naming \"threads\"", threads, d, err)
		}
	}
	cfg := GSIM()
	cfg.Threads = 1
	sys, err := Build(g, cfg)
	if err != nil {
		t.Fatalf("one-worker GSIM: %v", err)
	}
	sys.Close()
}

// TestValueNodeRefusesWritePort: a memory write port is named like a node
// but has no value word, so ValueNode refuses it (and an unknown name)
// instead of handing a caller a node whose state offset is -1.
func TestValueNodeRefusesWritePort(t *testing.T) {
	g, err := firrtl.LoadFile("../../testdata/fifo.fir")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Build(g, GSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if n := sys.Node("buf.w"); n == nil || n.Kind != ir.KindMemWrite {
		t.Fatalf("fifo.fir has no write port buf.w to refuse: %v", n)
	}
	if _, err := ValueNode(sys.Graph, "buf.w"); err == nil || !strings.Contains(err.Error(), "memory write port") {
		t.Fatalf("ValueNode(buf.w) = %v, want a refusal naming a memory write port", err)
	}
	if _, err := ValueNode(sys.Graph, "nope"); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("ValueNode(nope) = %v, want a refusal naming it", err)
	}
	if n, err := ValueNode(sys.Graph, "cnt"); err != nil || n.Name != "cnt" {
		t.Fatalf("ValueNode(cnt) = %v, %v", n, err)
	}
}
