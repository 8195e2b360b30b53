package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/gen"
	"gsim/internal/ir"
)

// matrixSim is one cell of the conformance matrix: an engine instance over
// the shared compiled program.
type matrixSim struct {
	name string
	sim  engine.Sim
}

// matrixEngines instantiates the full engine × stream-mode × worker-count ×
// coarsening matrix over ONE compiled program (sys's, rebuilt by analyzable)
// and partition, so every cell shares node IDs and state layout and the
// state images can be compared word for word:
//
//	fullcycle, activity          × {kernel, interp} × {1, 2, 4} workers
//	activity (coarsened)         × {kernel, interp} × {1, 2, 4} workers
//
// Engines run every stream mode through one path, so the interp cells run
// the whole engine over the interpreter, while kernel-nofuse would differ
// from kernel only in which stream kernels run — TestChainMatchesInterp in
// internal/emit pins those.
//
// The coarsened cells run the merged-level schedule with an aggressive grain
// (so merging actually happens on small designs) and must stay bit-identical
// to every other cell — the adaptive-coarsening correctness pin.
//
// All engines must produce identical state trajectories (the package
// contract in internal/engine).
func matrixEngines(t *testing.T, prog *emit.Program, sys *System) []matrixSim {
	t.Helper()
	order := make([]int32, len(prog.Graph.Nodes))
	for i := range order {
		order[i] = int32(i)
	}
	_, byLevel := prog.Graph.Levelize(order)

	coarse := sys.Config.Activity
	coarse.Coarsen = true
	coarse.CoarsenGrain = 1 << 30 // merge everything mergeable: worst case for ordering bugs

	modes := []engine.EvalMode{engine.EvalKernel, engine.EvalInterp}
	var sims []matrixSim
	for _, mode := range modes {
		for _, threads := range []int{1, 2, 4} {
			sims = append(sims,
				matrixSim{fmt.Sprintf("fullcycle-%dT/%s", threads, mode),
					engine.NewFullCycle(prog, byLevel, threads, mode)},
				matrixSim{fmt.Sprintf("activity-%dT/%s", threads, mode),
					engine.NewActivity(prog, sys.Part, sys.Config.Activity, threads, mode)},
				matrixSim{fmt.Sprintf("activity-coarsen-%dT/%s", threads, mode),
					engine.NewActivity(prog, sys.Part, coarse, threads, mode)},
			)
		}
	}
	return sims
}

// matrixDesigns: every testdata FIRRTL design, two generated random designs,
// and the small generated profile (the synthetic processor shape with
// clusters, one-hot decode, FIFOs, and a 128-bit stimulus register that
// exercises the 2-word width class).
func matrixDesigns(t *testing.T) (names []string, graphs []*ir.Graph) {
	t.Helper()
	names, graphs = lockstepDesigns(t)
	names = append(names, "stucore-like-profile")
	graphs = append(graphs, gen.BuildProfile(gen.StuCoreLike()))
	return names, graphs
}

// TestEngineMatrixLockstep sweeps the conformance matrix: both engines, the
// kernel and interp stream modes, 1/2/4 workers, lockstep over every design
// with two seeds of randomized stimulus and reset pulses. Every cell's full
// state image must stay bit-identical to the first cell every cycle, and the
// first cell's outputs must match the independent ir-reference oracle — so
// superinstruction fusion, width classes, and the worker schedules can never
// diverge any engine from any other.
func TestEngineMatrixLockstep(t *testing.T) {
	cycles := 60
	if testing.Short() {
		cycles = 20
	}
	names, graphs := matrixDesigns(t)
	for di, g := range graphs {
		sys, err := Build(g, GSIM())
		if err != nil {
			t.Fatalf("%s: %v", names[di], err)
		}
		prog := analyzable(t, g, sys)
		for _, seed := range []int64{13, 7919} {
			lockstepMatrix(t, names[di], prog, sys, int64(di)*977+seed, cycles)
		}
		sys.Close()
	}
}

// lockstepMatrix runs every matrix cell, the lane cells and the reference
// oracle in lockstep on one seed of stimulus for the given cycles.
func lockstepMatrix(t *testing.T, name string, prog *emit.Program, sys *System, seed int64, cycles int) {
	t.Helper()
	sims := matrixEngines(t, prog, sys)
	ref, err := engine.NewReference(prog.Graph)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}

	var inputs, outputs []*ir.Node
	for _, n := range sys.Graph.Nodes {
		if n.Kind == ir.KindInput {
			inputs = append(inputs, n)
		}
		if n.IsOutput {
			outputs = append(outputs, n)
		}
	}
	// The lane cells: 3 lanes of each engine kind over one shared plan,
	// every lane fed the matrix stimulus. Each lane's state must track
	// the scalar cells word for word — engines sharing a plan join the
	// same bit-identity contract as every engine × mode × thread cell.
	const gangLanes = 3
	laneSets := map[string]*engine.Lanes{
		"fullcycle": newLanes(engine.PlanFullCycle(prog, nil, 1, engine.EvalKernel), gangLanes),
		"activity":  newLanes(engine.PlanActivity(prog, sys.Part, sys.Config.Activity, 1, engine.EvalKernel), gangLanes),
	}

	rng := rand.New(rand.NewSource(seed))
	base := sims[0]
	for c := 0; c < cycles; c++ {
		for _, in := range inputs {
			v := bitvec.FromUint64(in.Width, rng.Uint64())
			if in.Name == "reset" {
				v = bitvec.FromUint64(1, uint64(rng.Intn(12)/11))
			}
			ref.Poke(in.ID, v)
			for _, ms := range sims {
				ms.sim.Poke(in.ID, v)
			}
			for _, lanes := range laneSets {
				for l := 0; l < gangLanes; l++ {
					lanes.Poke(l, in.ID, v)
				}
			}
		}
		ref.Step()
		for _, ms := range sims {
			ms.sim.Step()
		}
		for _, lanes := range laneSets {
			lanes.Step()
		}
		st0 := base.sim.Machine().State
		for _, ms := range sims[1:] {
			st := ms.sim.Machine().State
			for w := range st0 {
				if st0[w] != st[w] {
					t.Fatalf("%s seed %d cycle %d: state word %d: %s %#x vs %s %#x",
						name, seed, c, w, base.name, st0[w], ms.name, st[w])
				}
			}
		}
		for kind, lanes := range laneSets {
			for l := 0; l < gangLanes; l++ {
				gst, err := lanes.CaptureLane(l)
				if err != nil {
					t.Fatal(err)
				}
				for w := range st0 {
					if st0[w] != gst.State[w] {
						t.Fatalf("%s seed %d cycle %d: state word %d: %s %#x vs %s lane %d %#x",
							name, seed, c, w, base.name, st0[w], kind, l, gst.State[w])
					}
				}
			}
		}
		for _, n := range outputs {
			if a, b := ref.Peek(n.ID), base.sim.Peek(n.ID); !a.EqValue(b) {
				t.Fatalf("%s seed %d cycle %d: output %q: reference %s vs %s %s",
					name, seed, c, n.Name, a, base.name, b)
			}
		}
	}

	for _, ms := range sims {
		ms.sim.Close()
	}
	for _, lanes := range laneSets {
		lanes.Close()
	}
}

// newLanes builds k lanes over one plan.
func newLanes(pl engine.Plan, k int) *engine.Lanes {
	engs := make([]engine.Compiled, k)
	for l := range engs {
		engs[l] = pl.NewEngine()
	}
	return engine.NewLanes(engs)
}
