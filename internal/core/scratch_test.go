package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/engine"
	"gsim/internal/gen"
	"gsim/internal/ir"
)

// persistent returns a sim's persistent state words, the part of its image
// every engine of the design agrees on: temporaries are per-worker scratch,
// so they differ between engines, worker counts and runs by design.
func persistent(sim engine.Sim) []uint64 {
	m := sim.Machine()
	return m.State[:m.Prog.StateWords]
}

// poisonTemps fills every temporary region of sim's image with random words.
func poisonTemps(sim engine.Sim, rng *rand.Rand) {
	m := sim.Machine()
	for i := m.Prog.StateWords; i < len(m.State); i++ {
		m.State[i] = rng.Uint64()
	}
}

// TestTemporariesAreScratch pins the layout's one assumption: a temporary
// is always written before it is read inside its node's range, so whatever
// a region holds between Steps never reaches a result. Every temporary
// region is filled with random words before every Step, across both
// engines, the kernel and interp stream modes and 1, 2 and 4 workers, and
// the persistent words must track the reference oracle every cycle. Random
// upper bits in a reused word also pin the masked-storage invariant unpad
// relies on: a kernel that read a stale word past its operand's width would
// leak them.
func TestTemporariesAreScratch(t *testing.T) {
	cycles := 40
	if testing.Short() {
		cycles = 15
	}
	names, graphs := lockstepDesigns(t)
	var designs []int
	for i, name := range names {
		if name == "padfold" || strings.HasPrefix(name, "gen") {
			designs = append(designs, i)
		}
	}
	names = append(names, "stucore-like")
	graphs = append(graphs, gen.BuildProfile(gen.StuCoreLike()))
	designs = append(designs, len(graphs)-1)
	for _, di := range designs {
		g := graphs[di]
		sys, err := Build(g, GSIM())
		if err != nil {
			t.Fatalf("%s: %v", names[di], err)
		}
		prog := analyzable(t, g, sys)
		if prog.TempWords == 0 {
			t.Fatalf("%s: no temporaries to poison", names[di])
		}
		ref, err := engine.NewReference(prog.Graph)
		if err != nil {
			t.Fatalf("%s: %v", names[di], err)
		}
		sims := matrixEngines(t, prog, sys)
		var inputs []*ir.Node
		for _, n := range sys.Graph.Nodes {
			if n.Kind == ir.KindInput {
				inputs = append(inputs, n)
			}
		}
		rng := rand.New(rand.NewSource(int64(di)*101 + 3))
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
			}
			ref.Step()
			for _, ms := range sims {
				poisonTemps(ms.sim, rng)
				ms.sim.Step()
			}
			for _, n := range prog.Graph.Nodes {
				if n.Kind == ir.KindMemWrite {
					continue
				}
				want := ref.Peek(n.ID)
				for _, ms := range sims {
					if got := ms.sim.Peek(n.ID); !got.EqValue(want) {
						t.Fatalf("%s cycle %d: node %q: reference %s vs %s %s", names[di], c, n.Name, want, ms.name, got)
					}
				}
			}
			st0 := persistent(sims[0].sim)
			for _, ms := range sims[1:] {
				if !slices.Equal(persistent(ms.sim), st0) {
					t.Fatalf("%s cycle %d: %s persistent words differ from %s", names[di], c, ms.name, sims[0].name)
				}
			}
		}
		for _, ms := range sims {
			ms.sim.Close()
		}
		sys.Close()
	}
}
