package engine

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/faultpoint"
	"gsim/internal/gen"
	"gsim/internal/ir"
	"gsim/internal/obs"
	"gsim/internal/partition"
)

// buildRandomCompiled generates a random design and compiles it, returning
// the sorted graph (the reference and the compiled engines must agree on
// node IDs, so sort before building either).
func buildRandomCompiled(t *testing.T, seed int64) (*ir.Graph, *emit.Program) {
	t.Helper()
	g := gen.Random(seed, gen.DefaultRandomConfig())
	if err := g.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, err := emit.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

// TestParallelActivityMatchesReference runs the multi-worker essential-
// signal engine in lockstep against the golden model on random designs with
// random stimulus, at several thread counts and partitionings.
func TestParallelActivityMatchesReference(t *testing.T) {
	cycles := 200
	if testing.Short() {
		cycles = 60
	}
	for _, seed := range []int64{7, 8} {
		for _, threads := range []int{2, 4} {
			g, p := buildRandomCompiled(t, seed)
			ref, err := NewReference(g)
			if err != nil {
				t.Fatal(err)
			}
			part := partition.Build(g, partition.Enhanced, 4)
			sim := NewActivity(p, part, ActivityConfig{MultiBitCheck: true, Activation: ActCostModel}, threads, EvalKernel)
			defer sim.Close()

			var inputs []*ir.Node
			var watched []*ir.Node
			for _, n := range g.Nodes {
				if n.Kind == ir.KindInput {
					inputs = append(inputs, n)
				}
				if n.IsOutput || n.Kind == ir.KindReg {
					watched = append(watched, n)
				}
			}
			rng := rand.New(rand.NewSource(seed * 31))
			for c := 0; c < cycles; c++ {
				for _, in := range inputs {
					v := bitvec.FromUint64(in.Width, rng.Uint64())
					if in.Name == "reset" {
						v = bitvec.FromUint64(1, uint64(rng.Intn(10)/9))
					}
					ref.Poke(in.ID, v)
					sim.Poke(in.ID, v)
				}
				ref.Step()
				sim.Step()
				for _, n := range watched {
					a, b := ref.Peek(n.ID), sim.Peek(n.ID)
					if !a.EqValue(b) {
						t.Fatalf("seed %d threads %d cycle %d: node %q: reference %s vs gsimmt %s",
							seed, threads, c, n.Name, a, b)
					}
				}
			}
			if sim.Stats().ActivityFactor() >= 1 {
				t.Fatalf("seed %d threads %d: activity factor %.3f not below 1",
					seed, threads, sim.Stats().ActivityFactor())
			}
		}
	}
}

// TestParallelActivityModesAgree exercises every activation mode and the
// non-multi-bit scan path against the reference on one design.
func TestParallelActivityModesAgree(t *testing.T) {
	for _, cfg := range []ActivityConfig{
		{Activation: ActBranch},
		{Activation: ActBranchless},
		{MultiBitCheck: true, Activation: ActCostModel},
	} {
		g, p := buildRandomCompiled(t, 11)
		ref, err := NewReference(g)
		if err != nil {
			t.Fatal(err)
		}
		part := partition.Build(g, partition.MFFC, 8)
		sim := NewActivity(p, part, cfg, 3, EvalKernel)
		var outs []*ir.Node
		for _, n := range g.Nodes {
			if n.IsOutput {
				outs = append(outs, n)
			}
		}
		rng := rand.New(rand.NewSource(99))
		for c := 0; c < 50; c++ {
			for _, n := range g.Nodes {
				if n.Kind != ir.KindInput {
					continue
				}
				v := bitvec.FromUint64(n.Width, rng.Uint64())
				ref.Poke(n.ID, v)
				sim.Poke(n.ID, v)
			}
			ref.Step()
			sim.Step()
			for _, n := range outs {
				if a, b := ref.Peek(n.ID), sim.Peek(n.ID); !a.EqValue(b) {
					t.Fatalf("cfg %+v cycle %d: output %q: %s vs %s", cfg, c, n.Name, a, b)
				}
			}
		}
		sim.Close()
	}
}

// TestParallelActivitySkipsIdleWork: the essential-signal property must
// survive parallelization — an idle design evaluates nothing.
func TestParallelActivitySkipsIdleWork(t *testing.T) {
	p, g, en, c := buildCounter(t)
	part := partition.Build(g, partition.Enhanced, 4)
	sim := NewActivity(p, part, ActivityConfig{MultiBitCheck: true, Activation: ActCostModel}, 2, EvalKernel)
	defer sim.Close()
	StepN(sim, 2)
	evalsBefore := sim.Stats().NodeEvals
	StepN(sim, 10)
	if idle := sim.Stats().NodeEvals - evalsBefore; idle != 0 {
		t.Fatalf("idle circuit evaluated %d nodes over 10 cycles", idle)
	}
	sim.Poke(en.ID, bitvec.FromUint64(1, 1))
	StepN(sim, 5)
	if got := sim.Peek(c.ID).Uint64(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (worker exit is signaled slightly before the goroutine is gone).
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline %d (now %d)", base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelCloseJoinsWorkers: Close must deterministically stop every
// worker goroutine, including when called twice, and Step must still have
// produced correct results beforehand.
func TestParallelCloseJoinsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	p, _, en, _ := buildCounter(t)
	sim := NewFullCycle(p, 4, EvalKernel)
	sim.Poke(en.ID, bitvec.FromUint64(1, 1))
	StepN(sim, 3)
	sim.Close()
	sim.Close() // idempotent
	waitForGoroutines(t, base)
}

// TestParallelActivityCloseJoinsWorkers: same contract for the GSIMMT engine.
func TestParallelActivityCloseJoinsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	p, g, en, _ := buildCounter(t)
	part := partition.Build(g, partition.Enhanced, 4)
	sim := NewActivity(p, part, ActivityConfig{MultiBitCheck: true, Activation: ActCostModel}, 4, EvalKernel)
	sim.Poke(en.ID, bitvec.FromUint64(1, 1))
	StepN(sim, 3)
	sim.Close()
	sim.Close() // idempotent
	waitForGoroutines(t, base)
}

// oneWorkerEngines builds both engines at one worker over the counter design.
func oneWorkerEngines(t *testing.T) (sims []Compiled, en *ir.Node) {
	t.Helper()
	p, g, en, _ := buildCounter(t)
	part := partition.Build(g, partition.Enhanced, 4)
	return []Compiled{
		NewFullCycle(p, 1, EvalKernel),
		NewActivity(p, part, ActivityConfig{MultiBitCheck: true, Activation: ActCostModel}, 1, EvalKernel),
	}, en
}

// TestOneWorkerStartsNoGoroutine: a one-worker engine sweeps inline on the
// caller, so building, stepping and closing one never changes the goroutine
// count.
func TestOneWorkerStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	sims, en := oneWorkerEngines(t)
	for _, sim := range sims {
		sim.Poke(en.ID, bitvec.FromUint64(1, 1))
		StepN(sim, 3)
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("%T: %d goroutines while stepping, %d before building", sim, n, base)
		}
		sim.Close()
		sim.Close()
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after Close, %d before building", n, base)
	}
}

// TestOneWorkerInjectedPanic: the inline sweep keeps the pool's containment
// contract — an injected worker panic surfaces from Step on the caller, and
// the engine still resets, steps and closes afterwards.
func TestOneWorkerInjectedPanic(t *testing.T) {
	defer faultpoint.Reset()
	sims, en := oneWorkerEngines(t)
	for _, sim := range sims {
		sim.Poke(en.ID, bitvec.FromUint64(1, 1))
		sim.Step()
		faultpoint.Arm(faultpoint.PoolPanic, 1)
		func() {
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || !strings.Contains(err.Error(), "worker 0 panicked at level 0") {
					t.Fatalf("%T: Step panicked with %v, want the contained worker panic", sim, r)
				}
			}()
			sim.Step()
		}()
		if faultpoint.Fired(faultpoint.PoolPanic) != 1 {
			t.Fatalf("%T: fault point did not fire", sim)
		}
		faultpoint.Reset()
		sim.Reset()
		StepN(sim, 2)
		if got := sim.Stats().Cycles; got != 2 {
			t.Fatalf("%T: %d cycles after Reset and two Steps", sim, got)
		}
		sim.Close()
	}
}

// TestOneWorkerSchedulesNoBarriers: a one-worker engine reports no barrier
// waits and no scheduled levels on /metrics, and the same engine at two
// workers reports both — its merged-level schedule, never deeper than the
// dependence levels it merged, which Shard exposes too.
func TestOneWorkerSchedulesNoBarriers(t *testing.T) {
	p, g, en, _ := buildCounter(t)
	part := partition.Build(g, partition.Enhanced, 4)
	cfg := ActivityConfig{MultiBitCheck: true, Activation: ActCostModel}
	for _, c := range []struct {
		name string
		sim  Compiled
		want bool
	}{
		{"fullcycle-1T", NewFullCycle(p, 1, EvalKernel), false},
		{"activity-1T", NewActivity(p, part, cfg, 1, EvalKernel), false},
		{"fullcycle-2T", NewFullCycle(p, 2, EvalKernel), true},
		{"activity-2T", NewActivity(p, part, cfg, 2, EvalKernel), true},
	} {
		reg := obs.NewRegistry()
		c.sim.AttachObs(NewMetrics(reg))
		c.sim.Poke(en.ID, bitvec.FromUint64(1, 1))
		StepN(c.sim, 5)
		c.sim.FlushObs()
		c.sim.Close()
		var buf bytes.Buffer
		if _, err := reg.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		scrape, err := obs.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		cycles, _ := scrape.Value("gsim_engine_cycles_total")
		waits, _ := scrape.Value("gsim_engine_barrier_waits_total")
		levels, _ := scrape.Value("gsim_engine_sched_levels")
		orig, _ := scrape.Value("gsim_engine_sched_levels_orig")
		if cycles != 5 || (waits > 0) != c.want || (levels > 0) != c.want {
			t.Fatalf("%s: cycles=%v barrier_waits=%v sched_levels=%v, want barriers %v", c.name, cycles, waits, levels, c.want)
		}
		if orig < levels {
			t.Fatalf("%s: sched_levels_orig=%v < sched_levels=%v", c.name, orig, levels)
		}
		if sv := c.sim.Shard(); (sv != nil) != c.want || sv != nil && (float64(sv.Levels) != levels || float64(sv.OrigLevels) != orig) {
			t.Fatalf("%s: Shard() = %+v, want the scraped schedule %v -> %v", c.name, sv, orig, levels)
		}
	}
}
