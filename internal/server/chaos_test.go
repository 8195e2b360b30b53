package server

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsim/internal/faultpoint"
)

// TestChaosManager hammers one live manager with concurrent session
// lifecycles while a fault firer randomly arms every injection point in the
// tree. The invariant under test is blast-radius containment: a fault may
// fail the op that trips it (poisoned session, refused restore, failed
// compile, stalled batch) but must never corrupt anyone else — every healthy
// session's observable state stays lockstep-identical with an undisturbed
// reference trajectory, and the final drain still converges. Goroutine
// hygiene is enforced by the package's leakcheck TestMain.
func TestChaosManager(t *testing.T) {
	defer faultpoint.Reset()
	src := readDesign(t, "counter.fir")

	// Phase 0, faults disarmed: record the reference trajectory ref[c] =
	// Peek("out") at cycle c for an enabled counter. Any session in the chaos
	// phase that drifts from this table has been corrupted by a neighbor's
	// fault.
	const refCycles = 2048
	ref := make([]string, refCycles+1)
	{
		rm := NewManager()
		s, err := rm.CreateSession(src, SessionSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Poke("en", "1"); err != nil {
			t.Fatal(err)
		}
		for c := 0; c <= refCycles; c++ {
			if ref[c], err = s.Peek("out"); err != nil {
				t.Fatal(err)
			}
			if c < refCycles {
				if _, err := s.Step(1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := rm.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// A tiny step chunk makes cancellation and step-panic boundaries land
	// mid-batch often; a tiny cache budget keeps eviction churning under the
	// create/close storm. Admission limits are set low enough to trip.
	m := NewManagerLimits(Limits{
		MaxSessions:      6,
		MaxInFlightOps:   16,
		MaxStepsPerBatch: 1 << 20,
		StepChunk:        16,
		CacheBudgetBytes: 1,
	})

	const workers = 8
	duration := 1200 * time.Millisecond
	if testing.Short() {
		duration = 300 * time.Millisecond
	}

	var (
		stop      = make(chan struct{}) // workers: wind down
		fireStop  = make(chan struct{}) // fault firer: stop arming
		fireDone  = make(chan struct{})
		wg        sync.WaitGroup
		created   atomic.Int64
		poisoned  atomic.Int64
		refused   atomic.Int64 // admission rejections observed
		mismatch  atomic.Int64
		gen       atomic.Int64 // bumped when a compile failure is cached
		compFails atomic.Int64
	)

	// CompileDesign caches failures by design (singleflight: a poisoned key
	// never retries), so a worker that eats an injected compile failure bumps
	// the generation, which salts the source and forces a fresh cache key.
	sourceFor := func() string {
		g := gen.Load()
		if g == 0 {
			return src
		}
		return src + "\n; chaos generation " + strconv.FormatInt(g, 10) + "\n"
	}

	// The fault firer round-robins every injection point so each fires at
	// least a few times per run, with jittered gaps so faults land at
	// arbitrary phases of the workers' op loops.
	go func() {
		defer close(fireDone)
		rng := rand.New(rand.NewSource(7))
		kinds := []string{faultpoint.StepPanic, faultpoint.SnapshotCorrupt, faultpoint.CompileFail, faultpoint.SlowOp, faultpoint.CompilePanic}
		for i := 0; ; i++ {
			select {
			case <-fireStop:
				return
			case <-time.After(time.Duration(2+rng.Intn(8)) * time.Millisecond):
			}
			switch k := kinds[i%len(kinds)]; k {
			case faultpoint.SlowOp:
				faultpoint.ArmDelay(k, 1, time.Duration(1+rng.Intn(4))*time.Millisecond)
			default:
				faultpoint.Arm(k, 1)
			}
		}
	}()

	type held struct {
		sess       *Session
		cycles     uint64
		blob       []byte
		blobCycles uint64
	}

	worker := func(id int) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(id) + 100))
		var h held
		drop := func() {
			if h.sess != nil {
				_ = h.sess.Close() // closing a poisoned/raced session must always work
			}
			h = held{}
		}
		defer drop()
		for {
			select {
			case <-stop:
				return
			default:
			}

			if h.sess == nil {
				// Mostly reuse the shared design (cache-hit path); sometimes
				// salt the source so CompileDesign actually runs and an armed
				// compile-fail fault has a site to land on.
				csrc := sourceFor()
				if rng.Intn(8) == 0 {
					csrc += "\n; worker " + strconv.Itoa(id) + " salt " + strconv.Itoa(rng.Intn(4)) + "\n"
				}
				s, err := m.CreateSession(csrc, SessionSpec{})
				switch {
				case err == nil:
					if err := s.Poke("en", "1"); err != nil {
						if !m.Draining() { // else the final Drain closed it between the two calls
							t.Errorf("worker %d: poke on fresh session: %v", id, err)
						}
						return
					}
					h = held{sess: s}
					created.Add(1)
				case errors.Is(err, ErrDraining):
					return
				case errors.Is(err, ErrTooManySessions):
					refused.Add(1)
					time.Sleep(time.Millisecond)
				case strings.Contains(err.Error(), "injected compile failure"),
					strings.Contains(err.Error(), "injected compile panic"):
					// A panicking compile must arrive here as an error too:
					// cached, unpinned, and never a poisoned cache entry.
					compFails.Add(1)
					gen.Add(1)
				default:
					t.Errorf("worker %d: unexpected create error: %v", id, err)
					return
				}
				continue
			}

			// classify routes an op error: fault-induced terminal states
			// recycle the session, shed/raced ops are retried, anything else
			// is a real bug.
			classify := func(op string, err error) (terminal bool) {
				switch {
				case errors.Is(err, ErrSessionFailed):
					poisoned.Add(1)
					drop()
					return true
				case errors.Is(err, ErrDraining), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
					drop()
					return true
				case strings.Contains(err.Error(), "is closed"):
					h = held{} // reaped/raced away beneath us; nothing to close
					return true
				case errors.Is(err, ErrTooManyInFlight), errors.Is(err, ErrStepBudget):
					refused.Add(1)
					return false
				default:
					t.Errorf("worker %d: unexpected %s error: %v", id, op, err)
					return true
				}
			}

			switch r := rng.Intn(100); {
			case r < 55: // step a handful of cycles
				n := 1 + rng.Intn(5)
				if h.cycles+uint64(n) > refCycles {
					drop() // past the reference table; start over
					continue
				}
				if _, err := h.sess.Step(n); err != nil {
					classify("step", err)
					continue
				}
				h.cycles += uint64(n)
			case r < 80: // peek and hold the session to the reference run
				out, err := h.sess.Peek("out")
				if err != nil {
					classify("peek", err)
					continue
				}
				if want := ref[h.cycles]; out != want {
					mismatch.Add(1)
					t.Errorf("worker %d: session %s at cycle %d reads %s, reference says %s",
						id, h.sess.ID, h.cycles, out, want)
					drop()
				}
			case r < 88: // snapshot (blob may be corrupted by a fault)
				blob, err := h.sess.Snapshot()
				if err != nil {
					classify("snapshot", err)
					continue
				}
				h.blob, h.blobCycles = blob, h.cycles
			case r < 96: // restore: either rewinds exactly, or refuses and changes nothing
				if h.blob == nil {
					continue
				}
				before := h.cycles
				if err := h.sess.Restore(h.blob); err != nil {
					if errors.Is(err, ErrSessionFailed) || errors.Is(err, ErrDraining) || strings.Contains(err.Error(), "is closed") {
						classify("restore", err)
						continue
					}
					// A refused (corrupt) restore must leave state untouched.
					if out, perr := h.sess.Peek("out"); perr == nil && out != ref[before] {
						mismatch.Add(1)
						t.Errorf("worker %d: refused restore disturbed state: cycle %d reads %s, want %s",
							id, before, out, ref[before])
						drop()
					}
					h.blob = nil // don't retry a corrupt blob forever
					continue
				}
				h.cycles = h.blobCycles
			default: // churn: close and recreate
				drop()
			}
		}
	}

	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker(i)
	}

	time.Sleep(duration)

	// Drain while workers are still mid-loop: in-flight chunked steps must be
	// force-canceled, creates refused, and the manager must still converge
	// well inside the bound.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainErr := m.Drain(drainCtx)
	close(stop)
	wg.Wait()
	close(fireStop)
	<-fireDone
	stepPanics := faultpoint.Fired(faultpoint.StepPanic)
	snapCorrupts := faultpoint.Fired(faultpoint.SnapshotCorrupt)
	slowOps := faultpoint.Fired(faultpoint.SlowOp)
	compPanics := faultpoint.Fired(faultpoint.CompilePanic)
	faultpoint.Reset()

	if drainErr != nil {
		t.Fatalf("drain under chaos: %v", drainErr)
	}
	if m.SessionCount() != 0 {
		t.Fatalf("%d sessions survived drain", m.SessionCount())
	}
	if created.Load() == 0 {
		t.Fatal("chaos run created no sessions — exercised nothing")
	}
	if mismatch.Load() != 0 {
		t.Fatalf("%d cross-session corruption(s) detected", mismatch.Load())
	}
	t.Logf("chaos: created=%d poisoned=%d compile-fails=%d shed=%d stepPanics=%d snapCorrupts=%d slowOps=%d compilePanics=%d",
		created.Load(), poisoned.Load(), compFails.Load(), refused.Load(),
		stepPanics, snapCorrupts, slowOps, compPanics)
}
