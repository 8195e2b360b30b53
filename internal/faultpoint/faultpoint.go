// Package faultpoint provides named, test-toggleable fault injection points.
// Production hardening is only believable if its failure paths run on demand:
// a fault point is a named site in the codebase (compile, step, snapshot,
// request admission) where a test can arm a failure — a panic, an error, a
// corruption, a stall — and observe that the blast radius stays contained
// (one poisoned session, not a dead process; one rejected restore, not a
// corrupted engine).
//
// All points are disarmed by default and the disarmed fast path is a single
// atomic load, so shipping the hooks in production code is free. Tests arm
// points with a fire count (and optionally a delay), run the scenario, and
// Reset. The registry is global — fault points model process-wide failures
// (any session may hit an armed fault), which is exactly the chaos-test
// contract: faults land on whoever trips them, and everyone else must be
// unaffected.
package faultpoint

import (
	"sync"
	"sync/atomic"
	"time"
)

// The fault points wired into the tree. Sites reference these constants; the
// registry accepts any name, so tests can add scratch points without edits
// here.
const (
	// CompileFail makes core.CompileDesign return an injected error.
	CompileFail = "compile-fail"
	// CompilePanic panics inside core.CompileDesign, as a bug in a pass
	// tripped by some input would.
	CompilePanic = "compile-panic"
	// StepPanic panics inside a session's step loop (server op boundary).
	StepPanic = "step-panic"
	// PoolPanic panics inside a parallel-engine worker goroutine.
	PoolPanic = "pool-panic"
	// SnapshotCorrupt flips snapshot header bytes after capture, producing a
	// blob that must be rejected on restore.
	SnapshotCorrupt = "snapshot-corrupt"
	// SlowOp stalls a session op batch for the armed delay.
	SlowOp = "slow-op"
	// FleetRestoreFail makes a live migration's target refuse a lane
	// restore, leaving a half-built session on the target.
	FleetRestoreFail = "fleet-restore-fail"
	// HandoffCorrupt damages one lane blob in the router's handoff store
	// between capture and restore.
	HandoffCorrupt = "handoff-corrupt"
)

// armed is the fast-path gate: false means no point anywhere is armed and
// Hit returns immediately. It is only ever written under mu.
var armed atomic.Bool

var (
	mu     sync.Mutex
	points = map[string]*point{}
)

type point struct {
	remaining int // fires left; < 0 means unlimited
	delay     time.Duration
	fired     uint64 // lifetime fire count, for test assertions
}

// Arm makes the named point fire on its next n hits (n < 0: every hit until
// disarmed). Re-arming replaces the previous count but keeps the fire count.
func Arm(name string, n int) {
	mu.Lock()
	defer mu.Unlock()
	p := points[name]
	if p == nil {
		p = &point{}
		points[name] = p
	}
	p.remaining = n
	recomputeLocked()
}

// ArmDelay arms the point like Arm and attaches a stall: every fire sleeps d
// before returning from Hit. Used by SlowOp-style points.
func ArmDelay(name string, n int, d time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	p := points[name]
	if p == nil {
		p = &point{}
		points[name] = p
	}
	p.remaining = n
	p.delay = d
	recomputeLocked()
}

// Disarm stops the named point from firing. Its lifetime fire count survives
// until Reset.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if p := points[name]; p != nil {
		p.remaining = 0
		p.delay = 0
	}
	recomputeLocked()
}

// Reset disarms everything and zeroes all fire counts. Tests defer this.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*point{}
	armed.Store(false)
}

// Fired reports how many times the named point has fired since Reset.
func Fired(name string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	if p := points[name]; p != nil {
		return p.fired
	}
	return 0
}

// Hit is the injection site call: it reports whether the named fault fires
// now, consuming one armed fire and applying any armed delay. Disarmed (the
// production state) it costs one atomic load.
func Hit(name string) bool {
	if !armed.Load() {
		return false
	}
	mu.Lock()
	p := points[name]
	if p == nil || p.remaining == 0 {
		mu.Unlock()
		return false
	}
	if p.remaining > 0 {
		p.remaining--
		if p.remaining == 0 {
			recomputeLocked()
		}
	}
	p.fired++
	delay := p.delay
	mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return true
}

// recomputeLocked refreshes the fast-path gate after arm state changes.
func recomputeLocked() {
	for _, p := range points {
		if p.remaining != 0 {
			armed.Store(true)
			return
		}
	}
	armed.Store(false)
}
