package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/ir"
	"gsim/internal/partition"
	"gsim/internal/trace"
)

// buildGangDesign compiles a design that exercises every lane execution
// shape: narrow ALU work, a mux-gated accumulator, a wide (>64-bit) datapath,
// a memory with read and write ports, and an extracted reset group.
func buildGangDesign(t *testing.T) (*emit.Program, *ir.Graph) {
	t.Helper()
	b := ir.NewBuilder("gang")
	en := b.Input("en", 1)
	d := b.Input("d", 16)
	rst := b.Input("rst", 1)
	waddr := b.Input("waddr", 4)
	wen := b.Input("wen", 1)

	acc := b.RegInit("acc", 16, bitvec.FromUint64(16, 7))
	b.SetNext(acc, b.Mux(b.R(en), b.AddW(b.R(acc), b.R(d), 16), b.R(acc)))
	acc.ResetSig = rst

	wide := b.Reg("wide", 100)
	b.SetNext(wide, b.Fit(b.Add(b.Shl(b.R(wide), 3), b.Cat(b.R(d), b.R(acc))), 100))

	m := b.Mem("m", 16, 16)
	b.MemWrite("wp", m, b.R(waddr), b.R(acc), b.R(wen))
	rd := b.MemRead("rd", m, b.R(waddr))

	b.Output("o", b.Xor(b.R(acc), b.R(rd)))
	b.Output("wred", b.XorR(b.R(wide)))
	if err := b.G.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, err := emit.Compile(b.G)
	if err != nil {
		t.Fatal(err)
	}
	return p, b.G
}

// lanePlans are the plans a lane can run on the gang design, one per engine
// kind: the full-cycle engine (the verilator preset's) and the
// essential-signal engine (gsim's).
func lanePlans(p *emit.Program, g *ir.Graph) map[string]Plan {
	return map[string]Plan{
		"fullcycle": PlanFullCycle(p, 1, EvalKernel),
		"activity": PlanActivity(p, partition.Build(g, partition.Enhanced, 4),
			ActivityConfig{MultiBitCheck: true, Activation: ActCostModel}, 1, EvalKernel),
	}
}

// newLanes builds k lanes over one plan.
func newLanes(pl Plan, k int) *Lanes {
	engs := make([]Compiled, k)
	for l := range engs {
		engs[l] = pl.NewEngine()
	}
	return NewLanes(engs)
}

// pokeInputs drives the same random stimulus into one lane and its scalar
// twin.
func pokeInputs(g *Lanes, lane int, twin Compiled, graph *ir.Graph, rng *rand.Rand) {
	for _, name := range []string{"en", "d", "rst", "waddr", "wen"} {
		n := graph.FindNode(name)
		var v bitvec.BV
		switch name {
		case "rst":
			v = bitvec.FromUint64(1, uint64(rng.Intn(10)/9)) // occasional reset pulse
		default:
			v = bitvec.FromUint64(n.Width, rng.Uint64())
		}
		g.Poke(lane, n.ID, v)
		if twin != nil {
			twin.Poke(n.ID, v)
		}
	}
}

// requireLaneEqualsTwin compares a lane's complete state (image, mems,
// stats, executed counter, activity arming) against its scalar twin's.
func requireLaneEqualsTwin(t *testing.T, g *Lanes, lane int, twin Compiled, cycle int) {
	t.Helper()
	st, err := g.CaptureLane(lane)
	if err != nil {
		t.Fatal(err)
	}
	tw := twin.CaptureState()
	for w := range st.State {
		if st.State[w] != tw.State[w] {
			t.Fatalf("cycle %d lane %d: state word %d = %#x, twin %#x", cycle, lane, w, st.State[w], tw.State[w])
		}
	}
	for mi := range st.Mems {
		for j := range st.Mems[mi] {
			if st.Mems[mi][j] != tw.Mems[mi][j] {
				t.Fatalf("cycle %d lane %d: mem %d word %d = %#x, twin %#x", cycle, lane, mi, j, st.Mems[mi][j], tw.Mems[mi][j])
			}
		}
	}
	if st.Executed != tw.Executed {
		t.Fatalf("cycle %d lane %d: executed %d, twin %d", cycle, lane, st.Executed, tw.Executed)
	}
	if st.Stats != tw.Stats {
		t.Fatalf("cycle %d lane %d: stats %+v, twin %+v", cycle, lane, st.Stats, tw.Stats)
	}
	if fmt.Sprint(st.SupCount, st.ActiveSups, st.PendingRegs) != fmt.Sprint(tw.SupCount, tw.ActiveSups, tw.PendingRegs) {
		t.Fatalf("cycle %d lane %d: arming %d %v %v, twin %d %v %v", cycle, lane,
			st.SupCount, st.ActiveSups, st.PendingRegs, tw.SupCount, tw.ActiveSups, tw.PendingRegs)
	}
}

// TestGangLockstepScalar drives each lane of 4-lane sets of both engine
// kinds with its own random stimulus and checks every lane stays
// bit-identical — state, mems, stats, waveform — to a scalar twin of its own
// kind fed the same stimulus.
func TestGangLockstepScalar(t *testing.T) {
	p, graph := buildGangDesign(t)
	for kind, pl := range lanePlans(p, graph) {
		const k = 4
		g := newLanes(pl, k)
		twins := make([]Compiled, k)
		rngs := make([]*rand.Rand, k)
		var gangVCD, twinVCD [k]*bytes.Buffer
		for l := 0; l < k; l++ {
			twins[l] = pl.NewEngine()
			rngs[l] = rand.New(rand.NewSource(int64(100 + l)))
			gangVCD[l], twinVCD[l] = &bytes.Buffer{}, &bytes.Buffer{}
			gv, err := trace.NewVCD(gangVCD[l], p, nil, trace.Options{Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			tv, err := trace.NewVCD(twinVCD[l], p, nil, trace.Options{Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			g.AttachLaneTracer(l, gv)
			twins[l].AttachTracer(tv)
		}

		const cycles = 50
		for c := 0; c < cycles; c++ {
			for l := 0; l < k; l++ {
				pokeInputs(g, l, twins[l], graph, rngs[l])
			}
			g.Step()
			for l := 0; l < k; l++ {
				twins[l].Step()
				requireLaneEqualsTwin(t, g, l, twins[l], c)
			}
		}
		for l := 0; l < k; l++ {
			if !bytes.Equal(gangVCD[l].Bytes(), twinVCD[l].Bytes()) {
				t.Fatalf("%s lane %d VCD diverges from scalar twin (%d vs %d bytes)", kind, l, gangVCD[l].Len(), twinVCD[l].Len())
			}
		}
		if g.Cycles() != cycles {
			t.Fatalf("%s: lockstep cycles = %d, want %d", kind, g.Cycles(), cycles)
		}
		g.Close()
	}
}

// TestGangParkWake parks and wakes lanes at random and checks a parked lane
// freezes completely (its twin is stepped only on the lane's live cycles) and
// resumes bit-identically, for both engine kinds.
func TestGangParkWake(t *testing.T) {
	p, graph := buildGangDesign(t)
	for kind, pl := range lanePlans(p, graph) {
		const k = 3
		g := newLanes(pl, k)
		twins := make([]Compiled, k)
		rngs := make([]*rand.Rand, k)
		for l := 0; l < k; l++ {
			twins[l] = pl.NewEngine()
			rngs[l] = rand.New(rand.NewSource(int64(200 + l)))
		}
		ctrl := rand.New(rand.NewSource(42))
		live := func(l int) bool { return g.LiveMask()>>l&1 != 0 }
		for c := 0; c < 80; c++ {
			for l := 0; l < k; l++ {
				if ctrl.Intn(4) == 0 {
					g.SetLive(l, !live(l))
				}
			}
			for l := 0; l < k; l++ {
				if live(l) {
					// Stimulus only lands on live lanes so the twin stream stays
					// aligned; a parked lane's inputs freeze with the rest of it.
					pokeInputs(g, l, twins[l], graph, rngs[l])
				}
			}
			g.Step()
			for l := 0; l < k; l++ {
				if live(l) {
					twins[l].Step()
				}
				requireLaneEqualsTwin(t, g, l, twins[l], c)
			}
		}
		if g.Cycles() != 80 {
			t.Fatalf("%s: lockstep cycles = %d, want 80", kind, g.Cycles())
		}
		g.Close()
	}
}

// TestGangLaneReset checks ResetLane restores power-on state for one lane
// without disturbing the others, and Reset restores every lane.
func TestGangLaneReset(t *testing.T) {
	p, graph := buildGangDesign(t)
	for kind, pl := range lanePlans(p, graph) {
		g := newLanes(pl, 2)
		rng := rand.New(rand.NewSource(7))
		for c := 0; c < 10; c++ {
			pokeInputs(g, 0, nil, graph, rng)
			pokeInputs(g, 1, nil, graph, rng)
			g.Step()
		}
		before1, err := g.CaptureLane(1)
		if err != nil {
			t.Fatal(err)
		}
		keep := append([]uint64(nil), before1.State...)
		g.ResetLane(0)
		fresh := pl.NewEngine()
		requireLaneEqualsTwin(t, g, 0, fresh, -1)
		after1, err := g.CaptureLane(1)
		if err != nil {
			t.Fatal(err)
		}
		for w := range keep {
			if keep[w] != after1.State[w] {
				t.Fatalf("%s: ResetLane(0) disturbed lane 1 at word %d", kind, w)
			}
		}
		g.SetLive(1, false)
		g.Reset()
		requireLaneEqualsTwin(t, g, 1, fresh, -2)
		if g.LiveMask() != 3 || g.Cycles() != 0 {
			t.Fatalf("%s: Reset left live=%#x cycles=%d", kind, g.LiveMask(), g.Cycles())
		}
		g.Close()
	}
}
