package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/gen"
	"gsim/internal/ir"
)

// TestCompiledDesignReleasesExprs: a compiled design keeps its graph's nodes
// but none of their expression trees, under both engines and two workers,
// and the graph says so — on every testdata design and the stucore-like and
// rocket-like profiles.
func TestCompiledDesignReleasesExprs(t *testing.T) {
	names, graphs := matrixDesigns(t)
	if !testing.Short() {
		names, graphs = append(names, "rocket-like-profile"), append(graphs, gen.BuildProfile(gen.RocketLike()))
	}
	for di, g := range graphs {
		for _, cfg := range []Config{GSIM(), Verilator(), GSIMMT(2)} {
			d, err := CompileDesign(g, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", names[di], cfg.Name, err)
			}
			if !d.Graph.Released() {
				t.Errorf("%s/%s: the compiled graph does not report itself released", names[di], cfg.Name)
			}
			for _, n := range d.Graph.Nodes {
				if n.Expr != nil || n.WAddr != nil || n.WData != nil || n.WEn != nil {
					t.Fatalf("%s/%s: node %s still holds an expression", names[di], cfg.Name, n)
				}
			}
			if g.Released() {
				t.Fatalf("%s/%s: compiling released the input graph", names[di], cfg.Name)
			}
		}
	}
}

// mustPanicReleased runs f and requires it to panic with ir.ErrReleased,
// whose message names the way out.
func mustPanicReleased(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, ir.ErrReleased) || !strings.Contains(err.Error(), "core.Optimize") {
			t.Errorf("%s on a released graph: recovered %v, want a panic naming core.Optimize", what, r)
		}
	}()
	f()
}

// TestReleasedGraphRefuses: a compiled design's graph cannot be compiled,
// optimized or walked again — compiling returns the refusal, every walk over
// its edges panics with it — so nothing built from it can silently miss the
// edges the release dropped.
func TestReleasedGraphRefuses(t *testing.T) {
	sys, err := Build(gen.BuildProfile(gen.StuCoreLike()), GSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	g := sys.Graph
	if _, err := CompileDesign(g, GSIM()); !errors.Is(err, ir.ErrReleased) {
		t.Errorf("CompileDesign of a released graph returned %v, want ir.ErrReleased", err)
	}
	if _, _, err := Optimize(g, GSIM().Opt); !errors.Is(err, ir.ErrReleased) {
		t.Errorf("Optimize of a released graph returned %v, want ir.ErrReleased", err)
	}
	if _, err := emit.Compile(g); !errors.Is(err, ir.ErrReleased) {
		t.Errorf("emit.Compile of a released graph returned %v, want ir.ErrReleased", err)
	}
	for what, walk := range map[string]func(){
		"BuildAdjacency":  func() { g.BuildAdjacency() },
		"TopoOrder":       func() { g.TopoOrder() },
		"NumEdges":        func() { g.NumEdges() },
		"ComputeStats":    func() { g.ComputeStats() },
		"ValidateNodes":   func() { g.ValidateNodes() },
		"Clone":           func() { g.Clone() },
		"NewReference":    func() { engine.NewReference(g) },
		"PlanActivity":    func() { engine.PlanActivity(sys.Prog, sys.Part, sys.Config.Activity, 1, engine.EvalKernel) },
		"PlanFullCycle2T": func() { engine.PlanFullCycle(sys.Prog, 2, engine.EvalKernel) },
	} {
		mustPanicReleased(t, what, walk)
	}
}

// TestOptimizeMatchesDesign: Optimize is exactly the front half of
// CompileDesign — the program emitted from its graph hashes like the
// compiled design's, under every preset shape, on every testdata design.
func TestOptimizeMatchesDesign(t *testing.T) {
	names, graphs := lockstepDesigns(t)
	for di, g := range graphs {
		for _, cfg := range []Config{GSIM(), Verilator(), Essent(), Arcilator()} {
			d, err := CompileDesign(g, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", names[di], cfg.Name, err)
			}
			og, res, err := Optimize(g, cfg.Opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", names[di], cfg.Name, err)
			}
			prog, err := emit.Compile(og)
			if err != nil {
				t.Fatalf("%s/%s: %v", names[di], cfg.Name, err)
			}
			if got, want := prog.DesignHashString(), d.DesignHash(); got != want {
				t.Errorf("%s/%s: Optimize + emit.Compile hash to %s, CompileDesign to %s", names[di], cfg.Name, got, want)
			}
			if got, want := fmt.Sprint(res), fmt.Sprint(d.PassResult); got != want {
				t.Errorf("%s/%s: Optimize's passes did %s, CompileDesign's %s", names[di], cfg.Name, got, want)
			}
		}
	}
}
