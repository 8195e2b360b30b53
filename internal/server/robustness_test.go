package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsim/internal/faultpoint"
	"gsim/internal/ir"
)

// sessionGraph builds a small distinct design per index: the register count
// varies, so each compiles to a different, nonzero cache cost.
func sessionGraph(t testing.TB, idx int) *ir.Graph {
	t.Helper()
	b := ir.NewBuilder(fmt.Sprintf("g%d", idx))
	en := b.Input("en", 1)
	prev := b.C(8, 1)
	for r := 0; r < 4+idx; r++ {
		reg := b.Reg(fmt.Sprintf("r%d", r), 8)
		b.SetNext(reg, b.Mux(b.R(en), b.AddW(b.R(reg), prev, 8), b.R(reg)))
		prev = b.R(reg)
	}
	b.Output("o", prev)
	return b.G
}

// TestPoisonedSessionIsolation is the fault-isolation contract at the
// session layer: an injected panic during one session's step poisons that
// session — the error carries the panic and stack, subsequent ops return a
// structured "session failed" error — while a concurrent session of the same
// design is untouched and stays on the reference trajectory.
func TestPoisonedSessionIsolation(t *testing.T) {
	defer faultpoint.Reset()
	src := readDesign(t, "counter.fir")
	m := NewManager()
	defer func() {
		if err := m.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	victim, err := m.CreateSession(src, SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := m.CreateSession(src, SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Session{victim, bystander} {
		if err := s.Poke("en", "1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bystander.Step(3); err != nil {
		t.Fatal(err)
	}

	faultpoint.Arm(faultpoint.StepPanic, 1)
	results, err := victim.Apply(context.Background(), []Op{{Op: "step", N: 5}})
	if err == nil {
		t.Fatal("injected step panic did not fail the batch")
	}
	if !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("error %v does not wrap ErrSessionFailed", err)
	}
	// The op result surfaces panic + stack.
	if len(results) == 0 || !strings.Contains(results[len(results)-1].Error, "injected step panic") {
		t.Fatalf("op results %+v do not carry the panic", results)
	}
	if !strings.Contains(results[len(results)-1].Error, "goroutine") {
		t.Fatalf("op result error does not include a stack trace: %q", results[len(results)-1].Error)
	}

	// Subsequent ops on the poisoned session keep failing, structurally.
	if _, err := victim.Step(1); !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("post-poison step error = %v, want ErrSessionFailed", err)
	}
	if _, err := victim.Snapshot(); !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("post-poison snapshot error = %v, want ErrSessionFailed", err)
	}
	if victim.Failed() == nil {
		t.Fatal("Failed() nil on poisoned session")
	}

	// The bystander is unaffected: 3 + 4 cycles of an enabled counter reads 6
	// (the en poke lands with one cycle of input latency).
	if _, err := bystander.Step(4); err != nil {
		t.Fatalf("bystander step after neighbor poison: %v", err)
	}
	out, err := bystander.Peek("out")
	if err != nil {
		t.Fatal(err)
	}
	if out != "8'h6" {
		t.Fatalf("bystander out = %s, want 8'h6", out)
	}

	// The manager still opens fresh sessions, and closing the poisoned one
	// works.
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	fresh, err := m.CreateSession(src, SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Step(1); err != nil {
		t.Fatal(err)
	}
}

// TestWritePortNameRefused: fifo.fir's write port buf.w resolves by name
// like any node but has no value word. Peeking or poking it is an op error
// that names it, not a panic that fails the session, and the session steps
// on.
func TestWritePortNameRefused(t *testing.T) {
	m := NewManager()
	defer func() {
		if err := m.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	s, err := m.CreateSession(readDesign(t, "fifo.fir"), SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Peek("buf.w"); err == nil || errors.Is(err, ErrSessionFailed) || !strings.Contains(err.Error(), "memory write port") {
		t.Fatalf("peek buf.w: %v, want an op error naming a memory write port", err)
	}
	if err := s.Poke("buf.w", "1"); err == nil || errors.Is(err, ErrSessionFailed) || !strings.Contains(err.Error(), "memory write port") {
		t.Fatalf("poke buf.w: %v, want an op error naming a memory write port", err)
	}
	if cycles, err := s.Step(3); err != nil || cycles != 3 {
		t.Fatalf("step after the refusals: cycles %d, %v", cycles, err)
	}
	if _, err := s.Peek("cnt"); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerPanicPoisonsOneSession drives fault isolation through the
// parallel engine's worker pool: a panic on a pool goroutine must propagate
// to the stepping session (not kill the process) and poison only it.
func TestWorkerPanicPoisonsOneSession(t *testing.T) {
	defer faultpoint.Reset()
	src := readDesign(t, "counter.fir")
	m := NewManager()
	defer func() {
		if err := m.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	victim, err := m.CreateSession(src, SessionSpec{Engine: "verilator", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := m.CreateSession(src, SessionSpec{Engine: "verilator", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := bystander.Poke("en", "1"); err != nil {
		t.Fatal(err)
	}

	faultpoint.Arm(faultpoint.PoolPanic, 1)
	if _, err := victim.Step(4); !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("worker panic produced %v, want ErrSessionFailed", err)
	}
	if _, err := victim.Step(1); !errors.Is(err, ErrSessionFailed) {
		t.Fatal("session not poisoned after worker panic")
	}
	if _, err := bystander.Step(5); err != nil {
		t.Fatalf("bystander session on shared design failed: %v", err)
	}
	out, err := bystander.Peek("out")
	if err != nil {
		t.Fatal(err)
	}
	if out != "8'h4" {
		t.Fatalf("bystander out = %s, want 8'h4", out)
	}
}

// TestStepCancellation pins the chunked-step contract: a deadline or cancel
// aborts a huge step batch at a chunk boundary — promptly, with the partial
// cycle count recorded — and the session stays healthy.
func TestStepCancellation(t *testing.T) {
	const chunk = 256
	m := NewManagerLimits(Limits{StepChunk: chunk})
	defer func() {
		if err := m.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	s, err := m.CreateSession(readDesign(t, "counter.fir"), SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("en", "1"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = s.Apply(ctx, []Op{{Op: "step", N: 10_000_000}})
	aborted := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled 10M-cycle step returned %v, want DeadlineExceeded", err)
	}
	// Must abort within roughly one chunk of the deadline, not run out the
	// full batch. The generous bound absorbs scheduler noise; the real
	// assertion is "nowhere near the seconds a 10M-cycle run takes".
	if aborted > 5*time.Second {
		t.Fatalf("cancellation took %v", aborted)
	}
	got := s.Cycles()
	if got == 0 || got >= 10_000_000 {
		t.Fatalf("cycles after abort = %d, want partial progress", got)
	}
	if got%chunk != 0 {
		t.Fatalf("aborted mid-chunk: %d cycles is not a multiple of %d", got, chunk)
	}

	// The session is healthy: further ops run and account from the partial
	// cycle count.
	after, err := s.Step(1)
	if err != nil {
		t.Fatalf("session unhealthy after cancellation: %v", err)
	}
	if after != got+1 {
		t.Fatalf("cycles after resume = %d, want %d", after, got+1)
	}
}

// TestAdmissionLimits covers the three admission axes and their HTTP
// statuses: session cap (503 + Retry-After), in-flight op cap (429), and the
// per-batch step budget (429).
func TestAdmissionLimits(t *testing.T) {
	defer faultpoint.Reset()
	src := readDesign(t, "counter.fir")
	m := NewManagerLimits(Limits{MaxSessions: 2, MaxInFlightOps: 1, MaxStepsPerBatch: 100})
	defer func() {
		if err := m.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	s1, err := m.CreateSession(src, SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateSession(src, SessionSpec{}); err != nil {
		t.Fatal(err)
	}

	// Session cap: in-process sentinel, then the HTTP mapping.
	if _, err := m.CreateSession(src, SessionSpec{}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("third create: %v, want ErrTooManySessions", err)
	}
	resp := postJSON(t, ts.URL+"/v1/sessions", CreateRequest{FIRRTL: src}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit create status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Step budget: a batch totaling over 100 cycles is refused whole.
	if _, err := s1.Apply(context.Background(), []Op{{Op: "step", N: 60}, {Op: "step", N: 41}}); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("over-budget batch: %v, want ErrStepBudget", err)
	}
	if got := s1.Cycles(); got != 0 {
		t.Fatalf("refused batch still stepped %d cycles", got)
	}
	resp = postJSON(t, ts.URL+"/v1/sessions/"+s1.ID+"/ops", OpsRequest{Ops: []Op{{Op: "step", N: 101}}}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget status %d, want 429", resp.StatusCode)
	}

	// In-flight cap: park one op batch on the slow-op fault, then race a
	// second — it must be shed, not queued.
	faultpoint.ArmDelay(faultpoint.SlowOp, 1, 300*time.Millisecond)
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := s1.Apply(context.Background(), []Op{{Op: "step", N: 1}})
		done <- err
	}()
	<-started
	var shed bool
	deadline := time.Now().Add(250 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := s1.Apply(context.Background(), []Op{{Op: "peek", Name: "out"}}); errors.Is(err, ErrTooManyInFlight) {
			shed = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !shed {
		t.Fatal("second op batch was never shed while one was in flight")
	}
	if err := <-done; err != nil {
		t.Fatalf("parked op batch failed: %v", err)
	}
}

// TestIdleReaper pins session idle reaping: an untouched session is closed
// once it exceeds the idle timeout, an active one survives.
func TestIdleReaper(t *testing.T) {
	src := readDesign(t, "counter.fir")
	m := NewManagerLimits(Limits{IdleTimeout: 150 * time.Millisecond, ReapInterval: 20 * time.Millisecond})
	defer func() {
		if err := m.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	idle, err := m.CreateSession(src, SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	active, err := m.CreateSession(src, SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}

	// Keep the active session warm past several idle windows.
	for i := 0; i < 10; i++ {
		if _, err := active.Step(1); err != nil {
			t.Fatalf("active session reaped: %v", err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	if _, err := idle.Step(1); err == nil {
		t.Fatal("idle session survived the reaper")
	}
	if m.SessionCount() != 1 {
		t.Fatalf("%d sessions live, want 1 (the active one)", m.SessionCount())
	}
}

// TestDrainBounded pins the drain deadline: a drain racing a stalled op
// reports the stragglers when its context expires, and a follow-up unbounded
// drain completes cleanly.
func TestDrainBounded(t *testing.T) {
	defer faultpoint.Reset()
	src := readDesign(t, "counter.fir")
	m := NewManager()
	s, err := m.CreateSession(src, SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}

	// Park an op batch on a 400ms stall, then drain with a 50ms budget.
	faultpoint.ArmDelay(faultpoint.SlowOp, 1, 400*time.Millisecond)
	opDone := make(chan struct{})
	go func() {
		defer close(opDone)
		_, _ = s.Apply(context.Background(), []Op{{Op: "step", N: 1}})
	}()
	time.Sleep(50 * time.Millisecond) // let the op take the session lock

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); err == nil {
		t.Fatal("bounded drain with a stalled op reported success")
	}
	<-opDone
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("follow-up drain: %v", err)
	}
	if m.SessionCount() != 0 {
		t.Fatalf("%d sessions survived drain", m.SessionCount())
	}
}

// TestDrainCancelsInFlightStep pins the force-cancel path: a session mid
// way through an enormous step batch does not stall drain — the batch aborts
// at its next chunk boundary with a draining error.
func TestDrainCancelsInFlightStep(t *testing.T) {
	m := NewManagerLimits(Limits{StepChunk: 128})
	s, err := m.CreateSession(readDesign(t, "counter.fir"), SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("en", "1"); err != nil {
		t.Fatal(err)
	}
	stepErr := make(chan error, 1)
	go func() {
		_, err := s.Apply(context.Background(), []Op{{Op: "step", N: 1_000_000_000}})
		stepErr <- err
	}()
	// Wait for the batch to be visibly in flight before draining.
	for i := 0; i < 200 && m.InFlightOps() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain against a 1B-cycle step: %v", err)
	}
	if err := <-stepErr; !errors.Is(err, ErrDraining) {
		t.Fatalf("in-flight step finished with %v, want ErrDraining", err)
	}
}

// TestConcurrentCreateCloseDrain hammers create/close/drain interleavings
// (the satellite's -race target): creates racing a drain either succeed and
// are then drained or fail with ErrDraining; a concurrent double-drain is
// safe; nothing leaks (TestMain's leak gate covers the package).
func TestConcurrentCreateCloseDrain(t *testing.T) {
	src := readDesign(t, "counter.fir")
	m := NewManager()

	const writers = 8
	var wg sync.WaitGroup
	var created, refused atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, err := m.CreateSession(src, SessionSpec{})
				if err != nil {
					if !errors.Is(err, ErrDraining) {
						t.Errorf("create: %v", err)
					}
					refused.Add(1)
					continue
				}
				created.Add(1)
				// Step a little; tolerate the drain racing us to the close.
				if _, err := s.Step(2); err != nil && !strings.Contains(err.Error(), "closed") && !errors.Is(err, ErrDraining) {
					t.Errorf("step: %v", err)
				}
				if i%2 == 0 {
					_ = s.Close()
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	// Double-drain concurrently with the creators still running.
	var drains sync.WaitGroup
	for d := 0; d < 2; d++ {
		drains.Add(1)
		go func() {
			defer drains.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := m.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}()
	}
	drains.Wait()
	close(stop)
	wg.Wait()

	if m.SessionCount() != 0 {
		t.Fatalf("%d sessions alive after drain", m.SessionCount())
	}
	if _, err := m.CreateSession(src, SessionSpec{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("create after drain: %v, want ErrDraining", err)
	}
	if created.Load() == 0 {
		t.Fatal("no session ever created — test exercised nothing")
	}
}

// TestSnapshotCorruptRejected pins the corrupt-blob path end to end: an
// injected corruption is detected on restore, the error is clean, and the
// session's state is untouched.
func TestSnapshotCorruptRejected(t *testing.T) {
	defer faultpoint.Reset()
	m := NewManager()
	defer func() {
		if err := m.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	s, err := m.CreateSession(readDesign(t, "counter.fir"), SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("en", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(9); err != nil {
		t.Fatal(err)
	}

	faultpoint.Arm(faultpoint.SnapshotCorrupt, 1)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(blob); err == nil {
		t.Fatal("corrupted snapshot restored silently")
	}
	// State untouched by the refused restore: still at cycle 9, value 8
	// (the en poke lands with one cycle of input latency).
	if got := s.Cycles(); got != 9 {
		t.Fatalf("cycles after refused restore = %d, want 9", got)
	}
	out, err := s.Peek("out")
	if err != nil {
		t.Fatal(err)
	}
	if out != "8'h8" {
		t.Fatalf("out after refused restore = %s, want 8'h8", out)
	}
}

// TestHealthEndpoints pins /healthz (liveness, always 200) and /readyz
// (readiness: 200 serving, 503 once draining).
func TestHealthEndpoints(t *testing.T) {
	m := NewManager()
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz while serving = %d", got)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining = %d (liveness must hold)", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", got)
	}
}

// TestCacheBudgetOverServer drives the compile cache's byte budget through
// the manager: a 3× overcommit of distinct designs stays under budget once
// their sessions close, while designs with live sessions are pinned and
// never evicted.
func TestCacheBudgetOverServer(t *testing.T) {
	// Measure one design's cost with an unlimited manager, then budget two.
	probe := NewManager()
	if _, err := probe.CreateSessionGraph(sessionGraph(t, 0), "probe", SessionSpec{}); err != nil {
		t.Fatal(err)
	}
	unit := probe.CacheStats().Bytes
	if err := probe.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if unit <= 0 {
		t.Fatal("design cost not positive")
	}

	budget := 2*unit + unit/2
	m := NewManagerLimits(Limits{CacheBudgetBytes: budget})
	defer func() {
		if err := m.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	// Phase 1: pinned overcommit — 6 designs' sessions held open at once.
	// The cache must exceed budget rather than evict anything pinned.
	var open []*Session
	for i := 0; i < 6; i++ {
		s, err := m.CreateSessionGraph(sessionGraph(t, i), fmt.Sprintf("gov%d", i), SessionSpec{})
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, s)
	}
	if ev := m.CacheStats().Evictions; ev != 0 {
		t.Fatalf("%d evictions while every design had live sessions", ev)
	}
	if designs := m.CacheStats().Designs; designs != 6 {
		t.Fatalf("%d designs resident, want 6 (pinned)", designs)
	}

	// Phase 2: close them all — residency must settle under the budget.
	for _, s := range open {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	st := m.CacheStats()
	if st.Budget != budget {
		t.Fatalf("budget reads %d, want %d", st.Budget, budget)
	}
	if st.Bytes > budget {
		t.Fatalf("used %d > budget %d after all sessions closed", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("overcommit produced no evictions")
	}

	// Phase 3: sustained churn stays bounded.
	for i := 6; i < 12; i++ {
		s, err := m.CreateSessionGraph(sessionGraph(t, i), fmt.Sprintf("gov%d", i), SessionSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if used := m.CacheStats().Bytes; used > budget {
			t.Fatalf("churn round %d: used %d > budget %d", i, used, budget)
		}
	}
}
