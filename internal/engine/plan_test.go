package engine_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/core"
	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/gen"
	"gsim/internal/ir"
	"gsim/internal/partition"
)

// planDesigns is the conformance matrix's design set: every testdata FIRRTL
// design, two random designs, and the stucore-like profile (whose 128-bit
// stimulus register reaches the plan's multi-word side table).
func planDesigns(t *testing.T) map[string]*ir.Graph {
	t.Helper()
	files, err := filepath.Glob("../../testdata/*.fir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata designs found: %v", err)
	}
	designs := map[string]*ir.Graph{}
	for _, f := range files {
		g, err := firrtl.LoadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		designs[filepath.Base(f)] = g
	}
	for _, seed := range []int64{5, 17} {
		designs[fmt.Sprintf("gen%d", seed)] = gen.Random(seed, gen.DefaultRandomConfig())
	}
	designs["stucore-like"] = gen.BuildProfile(gen.StuCoreLike())
	return designs
}

// activitySim is one essential-signal engine cell.
type activitySim interface {
	engine.Sim
	engine.Snapshotter
	CheckShadows() error
}

type planCell struct {
	name  string
	build func() activitySim
}

// analyzable rebuilds the program sys runs from its source graph g with the
// expression trees a compiled design releases (plans read its edges):
// core.Optimize under sys's options, then emit.Compile, pinned to sys's
// program by the design hash.
func analyzable(t *testing.T, g *ir.Graph, sys *core.System) *emit.Program {
	t.Helper()
	og, _, err := core.Optimize(g, sys.Config.Opt)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := emit.Compile(og)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prog.DesignHashString(), sys.Prog.DesignHashString(); got != want {
		t.Fatalf("core.Optimize + emit.Compile hash to %s, the compiled design to %s", got, want)
	}
	return prog
}

// planCells enumerates the activity engine × {kernel, kernel-nofuse, interp}
// over one program and partition, under activity configuration act. The
// first cell is the kernel engine GSIM builds.
func planCells(prog *emit.Program, part *partition.Result, act engine.ActivityConfig) []planCell {
	var cells []planCell
	for _, mode := range []engine.EvalMode{engine.EvalKernel, engine.EvalKernelNoFuse, engine.EvalInterp} {
		cells = append(cells, planCell{fmt.Sprintf("activity/%s", mode), func() activitySim {
			return engine.NewActivity(prog, part, act, mode)
		}})
	}
	return cells
}

// stimulus is a replayable random poke schedule with occasional reset pulses.
type stimulus struct {
	inputs []*ir.Node
	vals   [][]bitvec.BV // [cycle][input]
}

func newStimulus(g *ir.Graph, seed int64, cycles int) *stimulus {
	s := &stimulus{}
	for _, n := range g.Nodes {
		if n.Kind == ir.KindInput {
			s.inputs = append(s.inputs, n)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < cycles; c++ {
		row := make([]bitvec.BV, len(s.inputs))
		for i, in := range s.inputs {
			row[i] = bitvec.FromUint64(in.Width, rng.Uint64())
			if in.Name == "reset" {
				row[i] = bitvec.FromUint64(1, uint64(rng.Intn(12)/11))
			}
		}
		s.vals = append(s.vals, row)
	}
	return s
}

func (s *stimulus) poke(sim engine.Sim, cycle int) {
	for i, in := range s.inputs {
		sim.Poke(in.ID, s.vals[cycle][i])
	}
}

// requireSameState compares two engines' persistent state words: the
// temporaries are scratch, and a Reset leaves them as they are.
func requireSameState(t *testing.T, what string, a, b engine.Sim) {
	t.Helper()
	sw := a.Machine().Prog.StateWords
	sa, sb := a.Machine().State[:sw], b.Machine().State[:sw]
	for w := range sa {
		if sa[w] != sb[w] {
			t.Fatalf("%s: state word %d: %#x vs %#x", what, w, sa[w], sb[w])
		}
	}
}

// TestResetEqualsFreshBuild pins Reset against a freshly built engine of the
// same cell: after Reset the replayed stimulus must produce the same
// persistent state words AND the same full Stats block every cycle. A Reset
// that forgets to re-sync the plan's shadow words still reaches the right
// state (a stale shadow only costs or saves activations of an already fully
// armed design) but miscounts Activations in the first cycle, which only a
// per-cycle stats comparison sees — and only where activation branches on
// the change, hence the always-branch configuration next to GSIM's cost
// model (which picks branchless for the few-reader nodes small designs are
// made of).
func TestResetEqualsFreshBuild(t *testing.T) {
	const dirty, replay = 25, 25
	branch := core.GSIM().Activity
	branch.Activation = engine.ActBranch
	for name, g := range planDesigns(t) {
		sys, err := core.Build(g, core.GSIM())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stim := newStimulus(sys.Graph, 41, dirty+replay)
		prog := analyzable(t, g, sys)
		for _, cell := range append(planCells(prog, sys.Part, sys.Config.Activity), planCells(prog, sys.Part, branch)...) {
			used, fresh := cell.build(), cell.build()
			for c := 0; c < dirty; c++ {
				stim.poke(used, replay+c)
				used.Step()
			}
			used.Reset()
			if err := used.CheckShadows(); err != nil {
				t.Fatalf("%s %s after Reset: %v", name, cell.name, err)
			}
			for c := 0; c < replay; c++ {
				stim.poke(used, c)
				stim.poke(fresh, c)
				used.Step()
				fresh.Step()
				what := fmt.Sprintf("%s %s replay cycle %d", name, cell.name, c)
				requireSameState(t, what, fresh, used)
				if fs, us := *fresh.Stats(), *used.Stats(); fs != us {
					t.Fatalf("%s: stats diverge\nfresh %+v\nreset %+v", what, fs, us)
				}
			}
			used.Close()
			fresh.Close()
		}
		sys.Close()
	}
}

// copyState detaches a capture from the engine's live storage.
func copyState(s *engine.SimState) *engine.SimState {
	c := *s
	c.State = append([]uint64(nil), s.State...)
	c.Mems = make([][]uint64, len(s.Mems))
	for i, m := range s.Mems {
		c.Mems[i] = append([]uint64(nil), m...)
	}
	c.ActiveSups = append([]int32(nil), s.ActiveSups...)
	return &c
}

// TestShadowInvariant runs every activity cell in lockstep and asserts the
// shadow invariant (every tracked slot's shadow equals its state word) at
// every point the engine is at rest: after each poke round (reset pokes
// included), each Step, a mid-run Reset, and RestoreState — from a
// kernel capture into every cell and from a fusion-off capture into every
// cell, always into used engines that have since moved on.
func TestShadowInvariant(t *testing.T) {
	const cycles = 48
	for name, g := range planDesigns(t) {
		sys, err := core.Build(g, core.GSIM())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stim := newStimulus(sys.Graph, 7, cycles)
		cells := planCells(analyzable(t, g, sys), sys.Part, sys.Config.Activity)
		sims := make([]activitySim, len(cells))
		for i, cell := range cells {
			sims[i] = cell.build()
		}
		if a := sims[0].(*engine.Activity); name == "stucore-like" && a.TrackedSlots() == 0 {
			t.Fatalf("%s: plan tracks no slots, the check is vacuous", name)
		}
		check := func(when string, c int) {
			t.Helper()
			for i, sim := range sims {
				if err := sim.CheckShadows(); err != nil {
					t.Fatalf("%s %s cycle %d %s: %v", name, cells[i].name, c, when, err)
				}
				requireSameState(t, fmt.Sprintf("%s %s vs %s cycle %d %s", name, cells[0].name, cells[i].name, c, when), sims[0], sim)
			}
		}
		restoreAll := func(s *engine.SimState, c int) {
			t.Helper()
			for i, sim := range sims {
				if err := sim.RestoreState(s); err != nil {
					t.Fatalf("%s %s cycle %d: restore: %v", name, cells[i].name, c, err)
				}
			}
		}
		var fromKernel, fromNoFuse *engine.SimState
		check("after build", 0)
		for c := 0; c < cycles; c++ {
			switch c {
			case 10:
				fromKernel = copyState(sims[0].CaptureState()) // activity/kernel
				fromNoFuse = copyState(sims[1].CaptureState()) // activity/kernel-nofuse
			case 20:
				restoreAll(fromKernel, c)
				check("after restore of a kernel capture", c)
			case 30:
				restoreAll(fromNoFuse, c)
				check("after restore of a fusion-off capture", c)
			case 40:
				for _, sim := range sims {
					sim.Reset()
				}
				check("after Reset", c)
			}
			for _, sim := range sims {
				stim.poke(sim, c)
			}
			check("after poke", c)
			for _, sim := range sims {
				sim.Step()
			}
			check("after Step", c)
		}
		for _, sim := range sims {
			sim.Close()
		}
		sys.Close()
	}
}

// TestActivityStepAllocs pins the steady-state step of the one-worker
// essential-signal engine GSIM builds at zero allocations: the plan is
// pre-resolved, the pending-register list is reused across cycles, and the
// sweep runs inline with no worker handoff.
func TestActivityStepAllocs(t *testing.T) {
	sys, err := core.Build(gen.BuildProfile(gen.StuCoreLike()), core.GSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if a, ok := sys.Sim.(*engine.Activity); !ok || a.Shard() != nil {
		t.Fatalf("GSIM built %T, want a one-worker Activity", sys.Sim)
	}
	const cycles = 64
	stim := newStimulus(sys.Graph, 3, cycles)
	for c := 0; c < cycles; c++ { // grow the pending list to its working size
		stim.poke(sys.Sim, c)
		sys.Sim.Step()
	}
	// Poke pads its argument on the heap; the design keeps itself busy, so
	// the measured cycles need no stimulus.
	before := *sys.Sim.Stats()
	if n := testing.AllocsPerRun(2*cycles, sys.Sim.Step); n != 0 {
		t.Fatalf("steady-state Activity.Step allocates %.1f times per cycle, want 0", n)
	}
	if after := *sys.Sim.Stats(); after.RegCommits == before.RegCommits || after.Activations == before.Activations {
		t.Fatalf("design went idle, the pin measured nothing: %+v", after)
	}
}

// TestPlanConstructionAllocs pins the plan's shape: building an engine on the
// rocket-like design allocates a fixed handful of slices for the plan, not
// some per supernode. Under kernel-nofuse the kernel count is the
// instruction count whatever the partition, so two partitions of one program
// differing by thousands of supernodes must cost the same number of
// allocations, give or take append growth steps.
func TestPlanConstructionAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the rocket-like design")
	}
	g := gen.BuildProfile(gen.RocketLike())
	sys, err := core.Build(g, core.GSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	prog := analyzable(t, g, sys)
	allocs := func(part *partition.Result) float64 {
		return testing.AllocsPerRun(1, func() {
			engine.NewActivity(prog, part, sys.Config.Activity, engine.EvalKernelNoFuse)
		})
	}
	fine := partition.Build(prog.Graph, partition.Enhanced, 1)
	coarse := partition.Build(prog.Graph, partition.Enhanced, 16)
	if d := fine.Count() - coarse.Count(); d < 5000 {
		t.Fatalf("partitions differ by only %d supernodes (%d vs %d); the test needs thousands", d, fine.Count(), coarse.Count())
	}
	af, ac := allocs(fine), allocs(coarse)
	if d := af - ac; d > 64 || d < -64 {
		t.Fatalf("NewActivity allocations track the supernode count: %.0f at %d supernodes, %.0f at %d",
			af, fine.Count(), ac, coarse.Count())
	}
}
