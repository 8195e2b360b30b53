package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
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
	poisonWords(m.State[m.Prog.TempBase():], rng)
}

// poisonNext fills the next region of sim's image, every register's next
// value, with random words.
func poisonNext(sim engine.Sim, rng *rand.Rand) {
	m := sim.Machine()
	poisonWords(m.State[m.Prog.StateWords:m.Prog.TempBase()], rng)
}

func poisonWords(ws []uint64, rng *rand.Rand) {
	for i := range ws {
		ws[i] = rng.Uint64()
	}
}

// TestTemporariesAreScratch pins the layout's one assumption about
// temporaries: a temporary is always written before it is read inside its
// node's range, so whatever a region holds between Steps never reaches a
// result. Random upper bits in a reused word also pin the masked-storage
// invariant unpad relies on: a kernel that read a stale word past its
// operand's width would leak them.
func TestTemporariesAreScratch(t *testing.T) {
	checkScratch(t, "temporaries", poisonTemps, func(p *emit.Program) int { return p.TempWords })
}

// TestNextValuesAreScratch pins the same for registers' next values: each
// engine writes a register's next word before it commits or compares it in
// the same Step — or, in the one-worker full-cycle sweep, stores most of
// them straight into the current words — so the next region carries
// nothing from one Step to the next.
func TestNextValuesAreScratch(t *testing.T) {
	checkScratch(t, "next values", poisonNext, func(p *emit.Program) int { return p.NextWords })
}

// checkScratch fills one scratch region of every engine's image with random
// words (poison) before every Step, across both engines, the kernel and
// interp stream modes and 1, 2 and 4 full-cycle workers, and requires the persistent
// words and every Peek to track the reference oracle every cycle. words is
// the region's size, which every design must have some of.
func checkScratch(t *testing.T, what string, poison func(engine.Sim, *rand.Rand), words func(*emit.Program) int) {
	t.Helper()
	cycles := 40
	if testing.Short() {
		cycles = 15
	}
	names, graphs := lockstepDesigns(t)
	var designs []int
	for i, name := range names {
		if name == "padfold" || name == "swap" || name == "repeat" || strings.HasPrefix(name, "gen") {
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
		if words(prog) == 0 {
			t.Fatalf("%s: no %s to poison", names[di], what)
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
				poison(ms.sim, rng)
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

// TestFullCycleRegisterPlacement: the swap design's one-worker full-cycle
// plan updates c and s in place and commits the swap pair (a register read
// cycle) and the wide w through the commit list, in every stream mode; a
// multi-worker plan updates nothing in place.
// Every register of the stucore-like profile is in place.
func TestFullCycleRegisterPlacement(t *testing.T) {
	swap, err := firrtl.Load(swapFIRRTL)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Build(swap, Verilator())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	prog := analyzable(t, swap, sys)
	for _, c := range []struct {
		threads int
		mode    engine.EvalMode
		want    engine.RegPlacement
	}{
		{1, engine.EvalKernel, engine.RegPlacement{InPlace: 2, Regs: 5, Cyclic: 2, Wide: 1}},
		{1, engine.EvalKernelNoFuse, engine.RegPlacement{InPlace: 2, Regs: 5, Cyclic: 2, Wide: 1}},
		{1, engine.EvalInterp, engine.RegPlacement{InPlace: 2, Regs: 5, Cyclic: 2, Wide: 1}},
		{2, engine.EvalKernel, engine.RegPlacement{Regs: 5}},
	} {
		if got := engine.PlanFullCycle(prog, c.threads, c.mode).Registers(); got != c.want {
			t.Errorf("swap %dT/%s: %+v, want %+v", c.threads, c.mode, got, c.want)
		}
	}
	stu, err := CompileDesign(gen.BuildProfile(gen.StuCoreLike()), Verilator())
	if err != nil {
		t.Fatal(err)
	}
	if rp := stu.Plan().(*engine.FullCyclePlan).Registers(); rp.InPlace != rp.Regs || rp.Regs == 0 {
		t.Errorf("stucore-like: %+v, want every register in place", rp)
	}
}
