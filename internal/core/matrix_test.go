package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gsim/internal/bitvec"
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

// matrixEngines instantiates the full engine × eval-mode × worker-count ×
// coarsening matrix over ONE compiled program and partition, so every cell
// shares node IDs and state layout and the state images can be compared word
// for word:
//
//	fullcycle, activity          × {kernel, kernel-nofuse, interp} × {1, 2, 4} workers
//	activity (coarsened)         × {kernel, kernel-nofuse, interp} × {1, 2, 4} workers
//
// The coarsened cells run the merged-level schedule with an aggressive grain
// (so merging actually happens on small designs) and must stay bit-identical
// to every other cell — the adaptive-coarsening correctness pin.
//
// All engines must produce identical state trajectories (the package
// contract in internal/engine).
func matrixEngines(t *testing.T, sys *System) []matrixSim {
	t.Helper()
	order := make([]int32, len(sys.Graph.Nodes))
	for i := range order {
		order[i] = int32(i)
	}
	_, byLevel := sys.Graph.Levelize(order)

	coarse := sys.Config.Activity
	coarse.Coarsen = true
	coarse.CoarsenGrain = 1 << 30 // merge everything mergeable: worst case for ordering bugs

	modes := []engine.EvalMode{engine.EvalKernel, engine.EvalKernelNoFuse, engine.EvalInterp}
	var sims []matrixSim
	for _, mode := range modes {
		for _, threads := range []int{1, 2, 4} {
			sims = append(sims,
				matrixSim{fmt.Sprintf("fullcycle-%dT/%s", threads, mode),
					engine.NewFullCycle(sys.Prog, byLevel, threads, mode)},
				matrixSim{fmt.Sprintf("activity-%dT/%s", threads, mode),
					engine.NewActivity(sys.Prog, sys.Part, sys.Config.Activity, threads, mode)},
				matrixSim{fmt.Sprintf("activity-coarsen-%dT/%s", threads, mode),
					engine.NewActivity(sys.Prog, sys.Part, coarse, threads, mode)},
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

// TestEngineMatrixLockstep sweeps the conformance matrix: both engines, all
// three evaluation modes, 1/2/4 workers, lockstep
// over every design with randomized stimulus and reset pulses. Every cell's
// full state image must stay bit-identical to the first cell every cycle,
// and the first cell's outputs must match the independent ir-reference
// oracle — so superinstruction fusion, width classes, and the worker
// schedules can never diverge any engine from any other.
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
		sims := matrixEngines(t, sys)
		ref, err := engine.NewReference(sys.Graph)
		if err != nil {
			t.Fatalf("%s: %v", names[di], err)
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
			"fullcycle": newLanes(engine.PlanFullCycle(sys.Prog, nil, 1, engine.EvalKernel), gangLanes),
			"activity":  newLanes(engine.PlanActivity(sys.Prog, sys.Part, sys.Config.Activity, 1, engine.EvalKernel), gangLanes),
		}

		rng := rand.New(rand.NewSource(int64(di)*977 + 13))
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
						t.Fatalf("%s cycle %d: state word %d: %s %#x vs %s %#x",
							names[di], c, w, base.name, st0[w], ms.name, st[w])
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
							t.Fatalf("%s cycle %d: state word %d: %s %#x vs %s lane %d %#x",
								names[di], c, w, base.name, st0[w], kind, l, gst.State[w])
						}
					}
				}
			}
			for _, n := range outputs {
				if a, b := ref.Peek(n.ID), base.sim.Peek(n.ID); !a.EqValue(b) {
					t.Fatalf("%s cycle %d: output %q: reference %s vs %s %s",
						names[di], c, n.Name, a, base.name, b)
				}
			}
		}

		for _, ms := range sims {
			ms.sim.Close()
		}
		for _, lanes := range laneSets {
			lanes.Close()
		}
		sys.Close()
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
