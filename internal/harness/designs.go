// Package harness regenerates every table and figure in the paper's
// evaluation (§IV): the design registry (Table I's processors), the workload
// stimulus drivers (CoreMark / Linux / SPEC checkpoints), and one driver
// function per experiment. cmd/gsim-bench and the repository's benchmarks
// are thin wrappers over this package.
package harness

import (
	"fmt"
	"math/rand"

	"gsim/internal/bitvec"
	"gsim/internal/core"
	"gsim/internal/engine"
	"gsim/internal/gen"
	"gsim/internal/ir"
	"gsim/internal/rv"
)

// Driver pokes a simulator's inputs for one cycle of a workload.
type Driver func(sim engine.Sim, cycle int)

// Design is one evaluation design plus its workload drivers.
type Design struct {
	Name string
	// Build elaborates the design for a workload. The graph differs per
	// workload only for the processor core (whose instruction ROM holds the
	// program); synthetic profiles share one graph.
	Build func(workload string) (*ir.Graph, func(g *ir.Graph) Driver, error)
}

// Workload names understood by every design.
const (
	WorkloadCoreMark = "coremark"
	WorkloadLinux    = "linux"
)

// Designs returns the Table I design list: the real RV32 core as stuCore
// and the three scaled synthetic profiles.
func Designs() []Design {
	return []Design{
		StuCore(),
		Synthetic(gen.RocketLike()),
		Synthetic(gen.BoomLike()),
		Synthetic(gen.XiangShanLike()),
	}
}

// SmallDesigns returns a fast subset for tests.
func SmallDesigns() []Design {
	return []Design{StuCore(), Synthetic(gen.StuCoreLike())}
}

// StuCore is the real RV32I core; the workload selects the program burned
// into its instruction ROM.
func StuCore() Design {
	return Design{
		Name: "stucore",
		Build: func(workload string) (*ir.Graph, func(*ir.Graph) Driver, error) {
			src, ok := rv.Workloads[workload]
			if !ok {
				return nil, nil, fmt.Errorf("harness: no rv program for workload %q", workload)
			}
			prog, err := rv.Assemble(src)
			if err != nil {
				return nil, nil, err
			}
			c, err := rv.BuildCore(prog, rv.DefaultCoreConfig())
			if err != nil {
				return nil, nil, err
			}
			// The core restarts its program when it halts: the driver
			// reloads state via reset-less PC wrap — simplest is to just let
			// it sit halted; speed measurement uses the pre-halt window, and
			// programs run long enough for every measurement interval.
			return c.Graph, func(*ir.Graph) Driver {
				return func(engineSim engine.Sim, cycle int) {}
			}, nil
		},
	}
}

// Synthetic wraps a gen profile as a Design.
func Synthetic(p gen.Profile) Design {
	return Design{
		Name: p.Name,
		Build: func(workload string) (*ir.Graph, func(*ir.Graph) Driver, error) {
			g := gen.BuildProfile(p)
			mk := func(g2 *ir.Graph) Driver {
				stim := g2.FindNode("stim")
				if stim == nil {
					panic("harness: stim input missing")
				}
				id := stim.ID
				next := stimulus(p, workload)
				return func(sim engine.Sim, cycle int) {
					sim.Poke(id, next(cycle))
				}
			}
			return g, mk, nil
		},
	}
}

// stimulus returns the per-cycle stim value generator for a workload on a
// profile. CoreMark-like stimulus dwells on two clusters with a short
// repeating payload (hot spots, low activity); Linux-like stimulus sweeps
// every cluster in phases with a long-period payload (no hot spots).
// Checkpoint stimuli (fig. 7) use checkpointStimulus below.
func stimulus(p gen.Profile, workload string) func(cycle int) bitvec.BV {
	switch workload {
	case WorkloadCoreMark:
		rng := rand.New(rand.NewSource(101))
		table := make([]uint64, 8)
		for i := range table {
			table[i] = rng.Uint64()
		}
		return func(cycle int) bitvec.BV {
			// Hot loop: both selectors dwell on one cluster, hopping to a
			// second one only on a long period — the paper's "exhibits hot
			// spots" profile with a low, stable activity factor.
			sel := uint64(cycle/256) & 1
			payload := table[cycle%len(table)]
			return stimValue(p, sel, sel, payload, 0)
		}
	case WorkloadLinux:
		rng := rand.New(rand.NewSource(202))
		return func(cycle int) bitvec.BV {
			// Boot: one selector phases through every cluster, the other
			// jumps randomly — activity keeps moving, no hot spots.
			sel := uint64(cycle/16) % uint64(p.Clusters)
			sel2 := uint64(rng.Intn(p.Clusters))
			return stimValue(p, sel, sel2, rng.Uint64(), rng.Uint64())
		}
	default:
		panic(fmt.Sprintf("harness: unknown workload %q", workload))
	}
}

// checkpointStimulus builds the Fig. 7 SPEC-checkpoint stimuli: each
// checkpoint is a segment with its own cluster working set and payload
// distribution, the way SimPoint segments of different benchmarks stress
// different units.
func checkpointStimulus(p gen.Profile, seed int64) func(cycle int) bitvec.BV {
	rng := rand.New(rand.NewSource(seed))
	// Working set: between 1 and Clusters/2 clusters, fixed per checkpoint.
	ws := 1 + rng.Intn(p.Clusters/2)
	clusters := rng.Perm(p.Clusters)[:ws]
	// Payload churn: how often the payload changes (hot vs streaming).
	churn := 1 + rng.Intn(8)
	payload := rng.Uint64()
	return func(cycle int) bitvec.BV {
		if cycle%churn == 0 {
			payload = rng.Uint64()
		}
		sel := uint64(clusters[(cycle/4)%len(clusters)])
		sel2 := uint64(clusters[(cycle/64)%len(clusters)])
		return stimValue(p, sel, sel2, payload, payload>>32)
	}
}

func stimValue(p gen.Profile, sel, sel2, payload, hi uint64) bitvec.BV {
	selW := uint(bitsForClusters(p.Clusters))
	mask := uint64(1)<<selW - 1
	lo := sel&mask | (sel2&mask)<<selW | payload<<(2*selW)
	return bitvec.FromWords(128, []uint64{lo, hi<<(2*selW) | payload>>(64-2*selW)})
}

func bitsForClusters(n int) int {
	w := 1
	for 1<<uint(w) < n {
		w++
	}
	return w
}

// BuildSystem compiles one design+workload under one configuration, from the
// graph as elaborated: the program the service and the repository benchmark
// compile for the same design.
func BuildSystem(d Design, workload string, cfg core.Config) (*core.System, Driver, error) {
	g, mkDriver, err := d.Build(workload)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.Build(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	return sys, mkDriver(sys.Graph), nil
}
