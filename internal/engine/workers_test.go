package engine

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"gsim/internal/bitvec"
	"gsim/internal/faultpoint"
	"gsim/internal/ir"
	"gsim/internal/obs"
	"gsim/internal/partition"
)

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

// oneWorkerEngines builds both engines at one worker over the counter design.
func oneWorkerEngines(t *testing.T) (sims []Compiled, en *ir.Node) {
	t.Helper()
	p, g, en, _ := buildCounter(t)
	part := partition.Build(g, partition.Enhanced, 4)
	return []Compiled{
		NewFullCycle(p, 1, EvalKernel),
		NewActivity(p, part, ActivityConfig{MultiBitCheck: true, Activation: ActCostModel}, EvalKernel),
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
// waits and no scheduled levels on /metrics, and the full-cycle engine at two
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
		{"activity-1T", NewActivity(p, part, cfg, EvalKernel), false},
		{"fullcycle-2T", NewFullCycle(p, 2, EvalKernel), true},
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
