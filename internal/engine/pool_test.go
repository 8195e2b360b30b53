package engine

import (
	"strings"
	"sync/atomic"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/faultpoint"
)

// TestWorkerPoolPanicContained pins the fault-isolation contract of the
// shared worker pool: a panic inside one worker's run function must not kill
// the process or wedge the barrier — it surfaces as a panic on the goroutine
// that called cycle(), the pool stays coherent for further cycles, and Close
// still joins every worker.
func TestWorkerPoolPanicContained(t *testing.T) {
	var bomb atomic.Bool
	var runs atomic.Int64
	p := newWorkerPool(3, 4, func(w, lv int) {
		runs.Add(1)
		if bomb.Load() && w == 1 && lv == 2 {
			panic("kernel exploded")
		}
	})
	defer p.Close()

	p.cycle() // healthy warm-up sweep

	bomb.Store(true)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("cycle did not propagate the worker panic")
			}
			msg, ok := r.(error)
			if !ok || !strings.Contains(msg.Error(), "kernel exploded") {
				t.Fatalf("panic value %v does not carry the worker panic", r)
			}
			if !strings.Contains(msg.Error(), "worker 1 panicked at level 2") {
				t.Fatalf("panic value %v does not identify worker and level", r)
			}
		}()
		p.cycle()
	}()

	// The barrier protocol must have completed: every worker ran every level
	// in both sweeps despite the panic.
	if got := runs.Load(); got != 2*3*4 {
		t.Fatalf("runs = %d, want %d (barrier wedged?)", got, 2*3*4)
	}

	// The pool must remain usable after containment.
	bomb.Store(false)
	p.cycle()
	if got := runs.Load(); got != 3*3*4 {
		t.Fatalf("post-panic cycle ran %d total, want %d", got, 3*3*4)
	}
}

// TestParallelEngineInjectedPanic drives the same contract through a real
// parallel engine via the pool-panic fault point: Step panics on the caller,
// the process survives, and the engine can still be closed.
func TestParallelEngineInjectedPanic(t *testing.T) {
	defer faultpoint.Reset()
	p, _, en, _ := buildCounter(t)
	sim := NewFullCycle(p, 2, EvalKernel)
	defer sim.Close()
	sim.Poke(en.ID, bitvec.FromUint64(1, 1))
	sim.Step()

	faultpoint.Arm(faultpoint.PoolPanic, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected worker panic did not surface from Step")
			}
		}()
		sim.Step()
	}()
	if faultpoint.Fired(faultpoint.PoolPanic) != 1 {
		t.Fatal("fault point did not fire")
	}
}
