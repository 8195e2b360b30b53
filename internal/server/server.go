// Package server is the simulation-as-a-service layer: a session manager
// multiplexing many concurrent simulator sessions over a compiled-design
// cache. The paper's compile-once/simulate-fast economics only pay off if the
// compile is amortized; here, N sessions of one (design, configuration) share
// a single core.CompiledDesign — compiled exactly once under singleflight —
// and each session owns only its mutable engine (machine state image, active
// bits). Sessions step fully concurrently; the shared Program and partition
// are read-only after compilation.
//
// The manager is also the fault boundary of the service. A panic anywhere in
// a session's op path (a bad kernel, an engine bug) is contained to that
// session: the session is poisoned — subsequent operations return a
// structured "session failed" error — and every other session is unaffected.
// Operations carry a context; large step batches execute in bounded chunks
// that honor cancellation and deadlines between chunks. Admission control
// (max sessions, max in-flight ops, max step cycles per batch) sheds load
// before it queues, the compile cache evicts cold designs under a byte
// budget (designs with live sessions are pinned), and an idle reaper closes
// abandoned sessions.
//
// The manager is transport-agnostic (harness experiments and benchmarks
// drive it in-process); http.go exposes it as the HTTP+JSON API behind
// cmd/gsim-serve.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/bits"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsim/internal/bitvec"
	"gsim/internal/core"
	"gsim/internal/engine"
	"gsim/internal/faultpoint"
	"gsim/internal/firrtl"
	"gsim/internal/ir"
	"gsim/internal/obs"
	"gsim/internal/snapshot"
	"gsim/internal/trace"
)

// Sentinel errors for the service's refusal paths. The HTTP layer maps them
// to statuses (429/503 with Retry-After for admission, 500 for poisoned
// sessions); in-process callers match with errors.Is.
var (
	// ErrDraining: the manager is shutting down and accepts no new work.
	ErrDraining = errors.New("draining")
	// ErrTooManySessions: the MaxSessions admission limit is reached.
	ErrTooManySessions = errors.New("session limit reached")
	// ErrTooManyInFlight: the MaxInFlightOps admission limit is reached.
	ErrTooManyInFlight = errors.New("too many ops in flight")
	// ErrStepBudget: one ops batch asks for more step cycles than allowed.
	ErrStepBudget = errors.New("step batch exceeds cycle budget")
	// ErrSessionFailed: the session was poisoned by a panic; it accepts no
	// further operations (close it and open a fresh one).
	ErrSessionFailed = errors.New("session failed")
)

// defaultStepChunk bounds how many cycles run between cancellation checks in
// a step op. The chunk is the service's cancellation latency unit: small
// enough that a canceled 10M-cycle batch aborts promptly, large enough that
// the per-chunk check is invisible next to thousands of simulated cycles.
const defaultStepChunk = 8192

// DefaultMaxBodyBytes is the request-body cap applied when Limits leaves
// MaxBodyBytes zero: generous enough for large FIRRTL sources and snapshot
// blobs, small enough that one malicious POST cannot balloon the heap.
const DefaultMaxBodyBytes int64 = 64 << 20

// minReapInterval floors the idle reaper's poll period. A misconfigured (or
// carelessly derived) interval of a few nanoseconds would make the reaper
// goroutine busy-spin on its ticker; anything below this is clamped.
const minReapInterval = time.Millisecond

// maxLanes caps a session's lane count: the engine's live set is one word.
const maxLanes = 64

// maxTraceBytesPerLane caps each lane's in-memory VCD capture. A traced lane
// that outgrows the cap keeps simulating; the waveform is truncated and
// flagged, never the session killed.
const maxTraceBytesPerLane = 16 << 20

// Limits is the manager's admission-control and resource-governance
// configuration. Zero values mean "unlimited" / "disabled" — NewManager uses
// all-zero Limits, preserving the permissive single-user behavior.
type Limits struct {
	// MaxSessions caps live sessions; creation beyond it returns
	// ErrTooManySessions (HTTP 503 + Retry-After).
	MaxSessions int
	// MaxInFlightOps caps concurrently executing (or lock-waiting) op
	// batches across all sessions; beyond it Apply returns
	// ErrTooManyInFlight (HTTP 429 + Retry-After).
	MaxInFlightOps int
	// MaxStepsPerBatch caps the total step cycles one ops batch may request;
	// beyond it Apply refuses the whole batch with ErrStepBudget before
	// executing anything (HTTP 429).
	MaxStepsPerBatch int
	// OpTimeout is the per-request deadline the HTTP layer applies to each
	// ops batch. Zero: no deadline.
	OpTimeout time.Duration
	// IdleTimeout reaps sessions with no operation for this long. Zero: no
	// reaping.
	IdleTimeout time.Duration
	// ReapInterval is the reaper's poll period (default IdleTimeout/4). Both
	// the derived and an explicitly configured period are clamped to at least
	// minReapInterval so a tiny IdleTimeout cannot produce a zero-period
	// (ticker panic) or busy-spinning reaper.
	ReapInterval time.Duration
	// MaxBodyBytes caps each HTTP request body the JSON transport reads
	// (create, ops, restore). Zero: DefaultMaxBodyBytes. Negative: unlimited.
	MaxBodyBytes int64
	// CacheBudgetBytes bounds the compile cache's resident code+data bytes;
	// cold designs evict LRU-first, designs with live sessions are pinned.
	// Zero: unlimited.
	CacheBudgetBytes int64
	// StepChunk overrides the cycles-per-cancellation-check chunk size
	// (default defaultStepChunk). Mostly for tests.
	StepChunk int
}

// SessionSpec is a client's session configuration: the same knobs cmd/gsim
// exposes as flags, with the same defaults (gsim preset).
type SessionSpec struct {
	Engine       string `json:"engine,omitempty"`        // gsim | verilator | essent | arcilator (default gsim)
	Threads      int    `json:"threads,omitempty"`       // worker count: 0 or 1 for every engine, up to 64 for verilator (Verilator-MT)
	MaxSupernode int    `json:"max_supernode,omitempty"` // supernode size cap (0 = default)

	// Lanes steps K independent stimulus lanes through one compiled design
	// (engine.Lanes): K engines of the configured kind over the design's one
	// shared plan, in lockstep. 0 or 1 opens a scalar session — the one-lane
	// case, lane 0 only; 2..64 opens a gang session whose ops address lanes
	// (Op.Lane). Lanes is a per-session execution knob, not a compile knob:
	// it is deliberately absent from the compile-cache key, so scalar
	// sessions and gangs of every width share one compiled design. Every lane
	// runs the spec's engine: {"engine":"gsim","lanes":8} is eight
	// essential-signal engines.
	Lanes int `json:"lanes,omitempty"`
	// TraceLanes opts the listed lanes into in-memory VCD capture (fetched via
	// GET .../vcd?lane=N), bounded at maxTraceBytesPerLane per lane. Scalar
	// sessions accept only lane 0.
	TraceLanes []int `json:"trace_lanes,omitempty"`
	// TraceResume defers each traced lane's capture to its first restore:
	// instead of writing a VCD header at session creation, the lane's tracer
	// is attached in resume mode when a snapshot is restored into it, seeded
	// from the restored state and timestamped at the restored cycle — and
	// optionally prefixed with waveform bytes captured elsewhere (the restore
	// request's trace_prefix). This is the session-migration handoff: a fleet
	// router recreates a traced session on a new replica with TraceResume set,
	// restores each lane, and the lane's waveform continues byte-identically
	// to an unmigrated run.
	TraceResume bool `json:"trace_resume,omitempty"`
}

// coreConfig resolves the spec to a core configuration through core.Preset,
// the resolver cmd/gsim's flags go through, so a server session and a CLI
// run with the same knobs build the same simulator. It refuses an unknown
// engine or a worker count the engine does not take. Every session create
// and CreateRequest.Validate call it, so the router refuses before
// placement.
func (sp SessionSpec) coreConfig() (core.Config, error) {
	cfg, err := core.Preset(sp.Engine, sp.Threads)
	if err != nil {
		return cfg, err
	}
	if sp.MaxSupernode > 0 {
		cfg.MaxSupernode = sp.MaxSupernode
	}
	return cfg, nil
}

// Manager multiplexes sessions over a compiled-design cache.
type Manager struct {
	cache  *core.CompileCache
	limits Limits

	inflight atomic.Int64 // op batches admitted and not yet finished

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   uint64
	draining bool

	// Read on every request, so not under mu.
	metrics atomic.Pointer[Metrics]     // nil until InitObs
	logger  atomic.Pointer[slog.Logger] // never nil (obs.NopLogger default)

	reapStop chan struct{} // closed to stop the reaper goroutine
	reapDone chan struct{} // closed when the reaper has exited
	stopOnce sync.Once
}

// NewManager returns a manager with an empty compile cache and no limits —
// the permissive configuration for in-process harnesses and tests.
func NewManager() *Manager {
	return NewManagerLimits(Limits{})
}

// NewManagerLimits returns a manager enforcing the given limits. If
// IdleTimeout is set, a background reaper runs until Drain.
func NewManagerLimits(l Limits) *Manager {
	if l.StepChunk <= 0 {
		l.StepChunk = defaultStepChunk
	}
	if l.IdleTimeout > 0 {
		if l.ReapInterval <= 0 {
			l.ReapInterval = l.IdleTimeout / 4
		}
		// Clamp last, covering both the derived period (IdleTimeout/4
		// truncates to zero below 4ns and time.NewTicker panics on
		// non-positive periods) and an explicit near-zero period that would
		// busy-spin the reaper goroutine.
		if l.ReapInterval < minReapInterval {
			l.ReapInterval = minReapInterval
		}
	}
	if l.MaxBodyBytes == 0 {
		l.MaxBodyBytes = DefaultMaxBodyBytes
	}
	m := &Manager{
		cache:    core.NewCompileCache(),
		limits:   l,
		sessions: map[string]*Session{},
	}
	m.logger.Store(obs.NopLogger())
	if l.CacheBudgetBytes > 0 {
		m.cache.SetBudget(l.CacheBudgetBytes)
	}
	if l.IdleTimeout > 0 {
		m.reapStop = make(chan struct{})
		m.reapDone = make(chan struct{})
		go m.reapLoop()
	}
	return m
}

// Limits returns the manager's admission configuration.
func (m *Manager) Limits() Limits { return m.limits }

// capWriter is a bounded in-memory sink for per-lane VCD text. Writes past
// the cap are dropped (and flagged) rather than failing: a long-running
// traced lane keeps simulating with a truncated waveform instead of dying.
type capWriter struct {
	buf       bytes.Buffer
	limit     int
	truncated bool
}

func (c *capWriter) Write(p []byte) (int, error) {
	if room := c.limit - c.buf.Len(); room < len(p) {
		c.truncated = true
		if room > 0 {
			c.buf.Write(p[:room])
		}
		return len(p), nil
	}
	c.buf.Write(p)
	return len(p), nil
}

// laneTrace is one lane's opt-in waveform capture: a synchronous VCD encoder
// over a bounded buffer, flushed on demand when the client fetches it.
type laneTrace struct {
	sink *capWriter
	vcd  *trace.VCD
}

// Session is one live simulator instance over K lanes of the configured
// engine (engine.Lanes), a scalar session being the one-lane case. All
// operations serialize on the session's own lock; distinct sessions never
// contend (beyond the shared read-only design).
type Session struct {
	ID       string
	Design   *core.CompiledDesign
	CacheHit bool // whether creation shared a previously compiled design

	mgr      *Manager
	cfg      core.Config
	cacheKey string
	lanes    int // 1 for scalar sessions

	lastActivity atomic.Int64  // unix nanos of the last operation
	liveLanes    atomic.Int64  // unparked lanes, readable without s.mu (scrapes)
	forceCancel  chan struct{} // closed by Drain to abort in-flight chunked ops
	cancelOnce   sync.Once
	closeDone    chan struct{} // closed once the first Close has unregistered the session

	mu           sync.Mutex
	eng          *engine.Lanes
	laneVCD      []*laneTrace // indexed by lane; nil entries for untraced lanes
	pendingTrace []bool       // TraceResume lanes awaiting their arming restore
	closed       bool
	failed       error         // non-nil once poisoned by a panic
	lastCycles   uint64        // cycle count captured at Close (eng is gone after)
	steps        uint64        // lane-cycles stepped through this session
	stepTime     time.Duration // wall time inside Step, for sessions/s diagnostics
}

// Lanes returns the session's lane count (1 for scalar sessions).
func (s *Session) Lanes() int { return s.lanes }

// CreateSession compiles (or reuses) the design described by FIRRTL source
// text under the spec's configuration and opens a session over it.
func (m *Manager) CreateSession(src string, spec SessionSpec) (*Session, error) {
	sum := sha256.Sum256([]byte(src))
	return m.create(fmt.Sprintf("firrtl:%x", sum), spec, func() (*ir.Graph, error) {
		return firrtl.Load(src)
	})
}

// CreateSessionGraph opens a session over a pre-elaborated graph. sourceKey
// must identify the design content (it anchors the compile-cache key the way
// the FIRRTL content hash does for CreateSession). A compiled design's
// graph is released and refused here, before it can wedge a failed compile
// under sourceKey: sessions start from the source graph.
func (m *Manager) CreateSessionGraph(g *ir.Graph, sourceKey string, spec SessionSpec) (*Session, error) {
	if g.Released() {
		return nil, fmt.Errorf("server: %w", ir.ErrReleased)
	}
	return m.create("graph:"+sourceKey, spec, func() (*ir.Graph, error) { return g, nil })
}

// admitSession checks creation-time admission under the manager lock.
func (m *Manager) admitSession() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.Metrics().reject(rejectDraining)
		return fmt.Errorf("server: %w, not accepting sessions", ErrDraining)
	}
	if m.limits.MaxSessions > 0 && len(m.sessions) >= m.limits.MaxSessions {
		m.Metrics().reject(rejectSessions)
		return fmt.Errorf("server: %w (%d live)", ErrTooManySessions, len(m.sessions))
	}
	return nil
}

// resolveLanes validates the spec's gang shape: lane count and trace opt-ins.
func resolveLanes(spec SessionSpec) (int, error) {
	lanes := spec.Lanes
	if lanes == 0 {
		lanes = 1
	}
	if lanes < 1 || lanes > maxLanes {
		return 0, fmt.Errorf("server: lanes %d outside [1,%d]", spec.Lanes, maxLanes)
	}
	for _, l := range spec.TraceLanes {
		if l < 0 || l >= lanes {
			return 0, fmt.Errorf("server: trace lane %d outside [0,%d)", l, lanes)
		}
	}
	return lanes, nil
}

func (m *Manager) create(sourceKey string, spec SessionSpec, load func() (*ir.Graph, error)) (*Session, error) {
	cfg, err := spec.coreConfig()
	if err != nil {
		return nil, err
	}
	lanes, err := resolveLanes(spec)
	if err != nil {
		return nil, err
	}
	if err := m.admitSession(); err != nil {
		return nil, err
	}

	// Get pins the design (refcount) until the session closes; every early
	// exit below must release it.
	key := core.CacheKey(sourceKey, cfg)
	design, hit, err := m.cache.Get(key, func() (*core.CompiledDesign, error) {
		g, err := load()
		if err != nil {
			return nil, err
		}
		return core.CompileDesign(g, cfg)
	})
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(design, cfg, lanes)
	if err != nil {
		m.cache.Release(key)
		return nil, err
	}

	// Wire opt-in per-lane VCD capture before the first step so traces start
	// at the session's cycle zero. TraceResume sessions defer the attach to
	// each lane's first restore instead (armResumeTrace), where the restored
	// state seeds the diff base and the restored cycle stamps the stream.
	var laneVCD []*laneTrace
	var pendingTrace []bool
	if spec.TraceResume {
		if len(spec.TraceLanes) > 0 {
			pendingTrace = make([]bool, lanes)
			for _, l := range spec.TraceLanes {
				pendingTrace[l] = true
			}
		}
	} else {
		laneVCD, err = attachLaneTraces(eng, lanes, spec.TraceLanes, m.Metrics().traceMetrics())
		if err != nil {
			eng.Close()
			m.cache.Release(key)
			return nil, err
		}
	}

	m.mu.Lock()
	// Re-check admission: a drain or a competing create may have raced the
	// compile. Refusal must release everything acquired above.
	if m.draining || (m.limits.MaxSessions > 0 && len(m.sessions) >= m.limits.MaxSessions) {
		refuse, cause := ErrDraining, rejectDraining
		if !m.draining {
			refuse, cause = ErrTooManySessions, rejectSessions
		}
		m.Metrics().reject(cause)
		m.mu.Unlock()
		eng.Close()
		m.cache.Release(key)
		return nil, fmt.Errorf("server: %w, not accepting sessions", refuse)
	}
	defer m.mu.Unlock()
	m.nextID++
	s := &Session{
		ID:           fmt.Sprintf("s%d", m.nextID),
		Design:       design,
		CacheHit:     hit,
		mgr:          m,
		cfg:          cfg,
		cacheKey:     key,
		lanes:        lanes,
		forceCancel:  make(chan struct{}),
		closeDone:    make(chan struct{}),
		eng:          eng,
		laneVCD:      laneVCD,
		pendingTrace: pendingTrace,
	}
	s.lastActivity.Store(time.Now().UnixNano())
	m.sessions[s.ID] = s
	if mt := m.Metrics(); mt != nil {
		eng.AttachObs(mt.Engine)
		mt.SessionsCreated.Inc()
	}
	s.syncLiveLanes()
	m.log().Info("session created",
		"session", s.ID, "design", designHashPrefix(sourceKey),
		"lanes", lanes, "cache_hit", hit)
	return s, nil
}

// designHashPrefix shortens a session source key ("firrtl:<sha256>" or
// "graph:<key>") to a log-friendly design identifier.
func designHashPrefix(sourceKey string) string {
	if _, h, ok := strings.Cut(sourceKey, ":"); ok && len(h) > 12 {
		return h[:12]
	}
	return sourceKey
}

// newEngine builds a session's engine: one engine of the configured kind
// per lane, all over the design's shared plan.
func newEngine(design *core.CompiledDesign, cfg core.Config, lanes int) (*engine.Lanes, error) {
	engs := make([]engine.Compiled, lanes)
	for l := range engs {
		sim, err := design.NewSim(cfg)
		if err != nil {
			for _, e := range engs[:l] {
				e.Close()
			}
			return nil, err
		}
		engs[l] = sim
	}
	return engine.NewLanes(engs), nil
}

// attachLaneTraces builds bounded in-memory VCD capture for the requested
// lanes. Returns nil when nothing is traced.
func attachLaneTraces(eng *engine.Lanes, lanes int, traceLanes []int, tm *trace.Metrics) ([]*laneTrace, error) {
	if len(traceLanes) == 0 {
		return nil, nil
	}
	out := make([]*laneTrace, lanes)
	for _, l := range traceLanes {
		if out[l] != nil {
			continue // duplicate opt-in
		}
		lt, err := traceLane(eng, l, nil, nil, tm)
		if err != nil {
			return nil, err
		}
		out[l] = lt
	}
	return out, nil
}

// traceLane attaches a bounded in-memory VCD capture to one lane. prefix
// seeds the capture buffer and resume the encoder (nil for a capture from
// cycle zero): the waveform continuation of a migration handoff.
func traceLane(eng *engine.Lanes, lane int, prefix []byte, resume *trace.Resume, tm *trace.Metrics) (*laneTrace, error) {
	sink := &capWriter{limit: maxTraceBytesPerLane}
	_, _ = sink.Write(prefix)
	v, err := trace.NewVCD(sink, eng.Program(), nil, trace.Options{Sync: true, Resume: resume, Metrics: tm})
	if err != nil {
		return nil, err
	}
	eng.AttachLaneTracer(lane, v)
	return &laneTrace{sink: sink, vcd: v}, nil
}

// Session returns a live session by ID.
func (m *Manager) Session(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("server: no session %q", id)
	}
	return s, nil
}

// SessionIDs lists live sessions (sorted by creation: IDs are sequential).
func (m *Manager) SessionIDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	return ids
}

// SessionCount returns the number of live sessions.
func (m *Manager) SessionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// InFlightOps returns the number of currently admitted op batches.
func (m *Manager) InFlightOps() int64 { return m.inflight.Load() }

// Draining reports whether the manager has begun shutting down.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// CacheStats is the compile cache's full governance view: lookup traffic,
// residency, and eviction pressure.
type CacheStats struct {
	Hits      uint64 // lookups that found an existing entry
	Misses    uint64 // lookups that compiled
	Designs   int    // resident compiled designs
	Evictions uint64 // lifetime evictions under the byte budget
	Bytes     int64  // accounted resident bytes
	Budget    int64  // byte budget (0 = unlimited)
}

// CacheStats reports the compile cache's hit/miss traffic, resident designs
// and bytes, byte budget, and lifetime evictions.
func (m *Manager) CacheStats() CacheStats {
	hits, misses := m.cache.Stats()
	used, budget, evictions := m.cache.Governance()
	return CacheStats{
		Hits:      hits,
		Misses:    misses,
		Designs:   m.cache.Len(),
		Evictions: evictions,
		Bytes:     used,
		Budget:    budget,
	}
}

// reapLoop closes idle sessions until Drain stops it.
func (m *Manager) reapLoop() {
	defer close(m.reapDone)
	t := time.NewTicker(m.limits.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-m.reapStop:
			return
		case <-t.C:
			m.ReapIdle(m.limits.IdleTimeout)
		}
	}
}

// ReapIdle closes every session whose last operation is older than maxIdle
// and returns how many it closed. Safe to call concurrently with traffic: a
// session that becomes active between the scan and the close just closes —
// the idle threshold is advisory, not transactional.
func (m *Manager) ReapIdle(maxIdle time.Duration) int {
	if maxIdle <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-maxIdle).UnixNano()
	m.mu.Lock()
	var idle []*Session
	for _, s := range m.sessions {
		if s.lastActivity.Load() < cutoff {
			idle = append(idle, s)
		}
	}
	m.mu.Unlock()
	for _, s := range idle {
		_ = s.Close()
	}
	if len(idle) > 0 {
		if mt := m.Metrics(); mt != nil {
			mt.SessionsReaped.Add(uint64(len(idle)))
		}
		m.log().Info("idle sessions reaped", "count", len(idle), "max_idle", maxIdle)
	}
	return len(idle)
}

// stopReaper is idempotent and safe when no reaper was started.
func (m *Manager) stopReaper() {
	m.stopOnce.Do(func() {
		if m.reapStop != nil {
			close(m.reapStop)
			<-m.reapDone
		}
	})
}

// BeginDrain flips the manager into its draining state without touching the
// live sessions: new session creation is refused with ErrDraining and /readyz
// reports 503, while existing sessions keep serving ops, snapshots, and
// restores. This is the migration window a fleet router needs — the replica
// stops attracting new placements the instant the drain is decided, but its
// sessions stay alive (and snapshot-able) until they have been moved off.
// Idempotent; Drain goes through it as its first step.
func (m *Manager) BeginDrain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

// Drain stops accepting new sessions and closes every live one, bounded by
// ctx. In-flight chunked operations are force-canceled (they abort at their
// next chunk boundary with a cancellation error); the drain then waits for
// each session to close. If ctx expires first, the remaining closes continue
// in the background and Drain reports how many sessions were still open.
func (m *Manager) Drain(ctx context.Context) error {
	m.BeginDrain()
	m.mu.Lock()
	open := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	m.mu.Unlock()

	// Cancel before joining the reaper: the reaper may be blocked in Close on
	// a session mid-10M-cycle step, and only the force cancel makes that step
	// release the session lock at its next chunk boundary.
	for _, s := range open {
		s.cancel()
	}
	m.stopReaper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, s := range open {
			_ = s.Close()
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted with %d sessions still open: %w", m.SessionCount(), ctx.Err())
	}
}

// Op is one entry of a batched operation list — the unit of the service's
// request batching. A round-trip per poke would dominate simulation cost;
// a batch applies many pokes/steps/peeks atomically under one session lock.
//
// On gang sessions Lane addresses one stimulus lane: poke/peek default to
// lane 0 when Lane is nil; step advances every live lane at once (Lane is
// rejected — lanes advance in lockstep); reset
// with Lane resets one lane, without it the whole gang; park/wake (gang-only)
// require Lane and toggle the lane's liveness — a parked lane freezes
// bit-exactly and skips all work until woken. Scalar sessions accept only a
// nil or zero Lane and reject park/wake.
type Op struct {
	Op    string `json:"op"`              // poke | peek | step | reset | park | wake
	Name  string `json:"name,omitempty"`  // poke/peek: node name
	Value string `json:"value,omitempty"` // poke: FIRRTL-style literal ("h1f", "42", "b101")
	N     int    `json:"n,omitempty"`     // step: cycle count (default 1)
	Lane  *int   `json:"lane,omitempty"`  // gang sessions: target lane
}

// OpResult is the outcome of one Op. Peek fills Value (width'hHEX); step
// fills Cycles with the session's total simulated cycles after the step.
// Error is set only on the op that poisoned the session (panic + stack).
type OpResult struct {
	Op     string `json:"op"`
	Name   string `json:"name,omitempty"`
	Value  string `json:"value,omitempty"`
	Cycles uint64 `json:"cycles,omitempty"`
	Lane   *int   `json:"lane,omitempty"`
	Error  string `json:"error,omitempty"`
}

// errClosed is returned for any operation on a closed session.
func (s *Session) errClosed() error { return fmt.Errorf("server: session %s is closed", s.ID) }

// touch records activity for the idle reaper.
func (s *Session) touch() { s.lastActivity.Store(time.Now().UnixNano()) }

// cancel force-aborts in-flight chunked operations (drain path). Idempotent.
func (s *Session) cancel() { s.cancelOnce.Do(func() { close(s.forceCancel) }) }

// checkCancel reports why a chunked op must stop early, or nil.
func (s *Session) checkCancel(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("server: session %s: op canceled: %w", s.ID, err)
	}
	select {
	case <-s.forceCancel:
		return fmt.Errorf("server: session %s: op aborted: %w", s.ID, ErrDraining)
	default:
		return nil
	}
}

// stepBudget sums a batch's requested step cycles for admission. A sum that
// overflows is over any limit, not a small negative number under it.
func stepBudget(ops []Op) int {
	total := 0
	for _, op := range ops {
		if op.Op == "step" {
			n := op.N
			if n <= 0 {
				n = 1
			}
			if total += n; total < 0 {
				return math.MaxInt
			}
		}
	}
	return total
}

// Apply runs a batch of operations atomically: no other session operation
// interleaves. The first failing op aborts the batch; results for completed
// ops are returned alongside the error.
//
// ctx bounds the batch: step ops execute in chunks (Limits.StepChunk cycles)
// and a cancellation or deadline aborts between chunks, returning the
// partial results — the session itself stays healthy, its cycle count
// reflects the cycles actually stepped.
//
// A panic inside any op (engine bug, injected fault) is contained here: the
// session is poisoned — this and every subsequent Apply returns an error
// wrapping ErrSessionFailed, with the panic value and stack in the failing
// op's result — and no other session is affected.
func (s *Session) Apply(ctx context.Context, ops []Op) (results []OpResult, err error) {
	mt := s.mgr.Metrics()
	if lim := s.mgr.limits.MaxInFlightOps; lim > 0 && s.mgr.inflight.Add(1) > int64(lim) {
		s.mgr.inflight.Add(-1)
		mt.reject(rejectInFlight)
		return nil, fmt.Errorf("server: %w (limit %d)", ErrTooManyInFlight, lim)
	} else if lim <= 0 {
		s.mgr.inflight.Add(1)
	}
	defer s.mgr.inflight.Add(-1)
	if lim := s.mgr.limits.MaxStepsPerBatch; lim > 0 {
		if total := stepBudget(ops); total > lim {
			mt.reject(rejectStepBudget)
			return nil, fmt.Errorf("server: %w (%d cycles requested, limit %d)", ErrStepBudget, total, lim)
		}
	}
	s.touch()
	defer s.touch()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, s.errClosed()
	}
	if s.failed != nil {
		return nil, s.failed
	}

	// SlowOp's stall (the armed delay) happens inside Hit itself.
	faultpoint.Hit(faultpoint.SlowOp)

	results = make([]OpResult, 0, len(ops))
	var cur Op
	// The fault boundary: runs before the mutex unlock (LIFO), so poisoning
	// happens under the session lock.
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			s.failed = fmt.Errorf("server: session %s: %w: panic in %q op: %v", s.ID, ErrSessionFailed, cur.Op, r)
			detail := fmt.Sprintf("panic in %q op: %v\n%s", cur.Op, r, stack)
			if mt != nil {
				mt.SessionsFailed.Inc()
			}
			s.mgr.log().Error("session poisoned",
				"session", s.ID, "op", cur.Op, "panic", fmt.Sprint(r), "stack", string(stack))
			results = append(results, OpResult{Op: cur.Op, Name: cur.Name, Error: detail})
			err = s.failed
		}
	}()

	chunk := s.mgr.limits.StepChunk
	if chunk <= 0 {
		chunk = defaultStepChunk
	}
	for i, op := range ops {
		cur = op
		res := OpResult{Op: op.Op, Name: op.Name, Lane: op.Lane}
		var opStart time.Time
		if mt != nil {
			opStart = time.Now()
		}
		switch op.Op {
		case "poke":
			n, err := s.valueNode(i, op.Name)
			if err != nil {
				return results, err
			}
			v, err := bitvec.Parse(n.Width, op.Value)
			if err != nil {
				return results, fmt.Errorf("server: op %d: %v", i, err)
			}
			lane, lerr := s.opLane(op, i)
			if lerr != nil {
				return results, lerr
			}
			s.eng.Poke(lane, n.ID, v)
		case "peek":
			n, err := s.valueNode(i, op.Name)
			if err != nil {
				return results, err
			}
			lane, lerr := s.opLane(op, i)
			if lerr != nil {
				return results, lerr
			}
			res.Value = s.eng.Peek(lane, n.ID).String()
		case "step":
			if op.Lane != nil {
				// Lanes advance in lockstep: park a lane to exclude it
				// instead of stepping one lane.
				return results, fmt.Errorf("server: op %d: step takes no lane (park/wake control per-lane progress)", i)
			}
			cycles := op.N
			if cycles <= 0 {
				cycles = 1
			}
			// steps counts lane-cycles (simulated work), so a gang session's
			// Throughput reports aggregate lanes/s. The live mask is fixed for
			// the whole op: ops in a batch are sequential, so no park/wake can
			// interleave a step.
			laneFactor := uint64(bits.OnesCount64(s.eng.LiveMask()))
			start := time.Now()
			done := 0
			for done < cycles {
				if cerr := s.checkCancel(ctx); cerr != nil {
					s.stepTime += time.Since(start)
					s.steps += uint64(done) * laneFactor
					return results, cerr
				}
				if faultpoint.Hit(faultpoint.StepPanic) {
					panic("faultpoint: injected step panic")
				}
				n := cycles - done
				if n > chunk {
					n = chunk
				}
				for c := 0; c < n; c++ {
					s.eng.Step()
				}
				done += n
			}
			s.stepTime += time.Since(start)
			s.steps += uint64(cycles) * laneFactor
			if mt != nil {
				mt.StepCycles.Add(uint64(cycles) * laneFactor)
				// Flush so /metrics is exact between op batches, not just at
				// the 1k-cycle amortization boundary.
				s.eng.FlushObs()
			}
			res.Cycles = s.eng.Cycles()
		case "reset":
			if op.Lane != nil {
				lane, lerr := s.opLane(op, i)
				if lerr != nil {
					return results, lerr
				}
				s.eng.ResetLane(lane)
				res.Cycles = s.eng.Cycles()
				break
			}
			s.eng.Reset()
			s.steps, s.stepTime = 0, 0
			res.Cycles = 0
		case "park", "wake":
			// A scalar session's one lane is always live.
			if s.lanes == 1 {
				return results, fmt.Errorf("server: op %d: %q requires a gang session", i, op.Op)
			}
			if op.Lane == nil {
				return results, fmt.Errorf("server: op %d: %q requires a lane", i, op.Op)
			}
			lane, lerr := s.opLane(op, i)
			if lerr != nil {
				return results, lerr
			}
			s.eng.SetLive(lane, op.Op == "wake")
			s.syncLiveLanes()
		default:
			return results, fmt.Errorf("server: op %d: unknown op %q (want poke, peek, step, reset, park, or wake)", i, op.Op)
		}
		if mt != nil {
			mt.opDone(op.Op, time.Since(opStart).Seconds())
		}
		results = append(results, res)
	}
	return results, nil
}

// valueNode resolves the node op i peeks or pokes (core.ValueNode).
func (s *Session) valueNode(i int, name string) (*ir.Node, error) {
	n, err := core.ValueNode(s.Design.Graph, name)
	if err != nil {
		return nil, fmt.Errorf("server: op %d: %v", i, err)
	}
	return n, nil
}

// opLane resolves an op's target lane: nil defaults to lane 0 (the scalar
// behavior), anything else must fall inside the session's lane range.
func (s *Session) opLane(op Op, i int) (int, error) {
	if op.Lane == nil {
		return 0, nil
	}
	if err := s.checkLane(*op.Lane); err != nil {
		return 0, fmt.Errorf("server: op %d: %w", i, err)
	}
	return *op.Lane, nil
}

// checkLane refuses a lane outside the session's range — for a scalar
// session, anything but lane 0.
func (s *Session) checkLane(lane int) error {
	if lane < 0 || lane >= s.lanes {
		return fmt.Errorf("lane %d outside [0,%d)", lane, s.lanes)
	}
	return nil
}

// Poke sets an input by name from a FIRRTL-style literal.
func (s *Session) Poke(name, literal string) error {
	_, err := s.Apply(context.Background(), []Op{{Op: "poke", Name: name, Value: literal}})
	return err
}

// Peek reads a node by name, rendered as width'hHEX.
func (s *Session) Peek(name string) (string, error) {
	res, err := s.Apply(context.Background(), []Op{{Op: "peek", Name: name}})
	if err != nil {
		return "", err
	}
	return res[0].Value, nil
}

// Step simulates n cycles (n <= 0 steps one) and returns total cycles.
func (s *Session) Step(n int) (uint64, error) {
	res, err := s.Apply(context.Background(), []Op{{Op: "step", N: n}})
	if err != nil {
		return 0, err
	}
	return res[0].Cycles, nil
}

// Snapshot serializes the session's complete simulator state (gang sessions:
// lane 0 — use SnapshotLane for the others).
func (s *Session) Snapshot() ([]byte, error) { return s.SnapshotLane(0) }

// SnapshotLane serializes one lane's state in the standard scalar snapshot
// format: the blob restores into a scalar session, a cmd/gsim run, or any
// lane of any gang over the same compiled design.
func (s *Session) SnapshotLane(lane int) ([]byte, error) {
	s.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, s.errClosed()
	}
	if s.failed != nil {
		return nil, s.failed
	}
	if err := s.checkLane(lane); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return snapshot.SaveLane(s.eng, lane)
}

// Restore overwrites the session's state from a snapshot blob. The blob must
// carry this session's design hash (see internal/snapshot); a snapshot taken
// in any session of the same compiled design — or by cmd/gsim -save on the
// same design and options — restores cleanly. A blob that fails validation
// (corruption, wrong design) leaves the session state untouched.
func (s *Session) Restore(data []byte) error { return s.RestoreLane(0, data) }

// RestoreLane overwrites one lane's state from a snapshot blob, leaving the
// other lanes untouched. The format is lane-agnostic: a scalar session's
// snapshot restores into any gang lane and vice versa.
func (s *Session) RestoreLane(lane int, data []byte) error {
	return s.restoreLane(lane, data, nil)
}

// RestoreLaneTrace is RestoreLane plus waveform continuation: vcdPrefix (the
// waveform the session captured before a migration handoff) seeds the lane's
// capture buffer, and the lane's resume-mode tracer — deferred at creation by
// SessionSpec.TraceResume — is armed from the restored state. Fetching the
// lane's VCD afterwards returns prefix + continuation, byte-identical to a
// session that was never moved.
func (s *Session) RestoreLaneTrace(lane int, data, vcdPrefix []byte) error {
	return s.restoreLane(lane, data, vcdPrefix)
}

func (s *Session) restoreLane(lane int, data, vcdPrefix []byte) error {
	s.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.errClosed()
	}
	if s.failed != nil {
		return s.failed
	}
	if err := s.checkLane(lane); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	pending := s.pendingTrace != nil && s.pendingTrace[lane]
	if len(vcdPrefix) > 0 && !pending {
		return fmt.Errorf("server: lane %d is not awaiting a trace resume (create the session with trace_resume and trace_lanes)", lane)
	}
	// Decode once so the restored state image is in hand for the resume
	// tracer's diff base; the blob's design hash is validated against this
	// session's compiled program exactly as snapshot.Restore would.
	st, err := snapshot.Decode(data, s.Design.Prog)
	if err != nil {
		return err
	}
	// steps/stepTime keep counting only cycles this session stepped itself —
	// a restored snapshot's history was simulated elsewhere, and folding it
	// in would corrupt Throughput.
	if err := s.eng.RestoreLane(lane, st); err != nil {
		return err
	}
	if !pending {
		return nil
	}
	// Arm the TraceResume lane's tracer: the capture buffer is seeded with
	// the pre-handoff waveform bytes, the diff base with the restored state,
	// and the timestamp with the restored cycle — the continuation appends
	// byte-identically to the prefix.
	lt, err := traceLane(s.eng, lane, vcdPrefix, &trace.Resume{Time: st.Stats.Cycles, State: st.State}, s.mgr.Metrics().traceMetrics())
	if err != nil {
		return err
	}
	if s.laneVCD == nil {
		s.laneVCD = make([]*laneTrace, s.lanes)
	}
	s.laneVCD[lane] = lt
	s.pendingTrace[lane] = false
	return nil
}

// Failed returns the poisoning error, or nil while the session is healthy.
func (s *Session) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Cycles returns the session's simulated cycle count (gang sessions: step
// calls issued, i.e. lockstep cycles, not lane-cycles). After Close it
// reports the final count captured at close time (the engine itself is gone).
func (s *Session) Cycles() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.lastCycles
	}
	return s.eng.Cycles()
}

// LaneInfo is one lane's state summary — GET /v1/sessions/{id}/lanes.
type LaneInfo struct {
	Lane           int    `json:"lane"`
	Live           bool   `json:"live"`
	Cycles         uint64 `json:"cycles"`
	Instrs         uint64 `json:"instrs"`
	Traced         bool   `json:"traced"`
	TraceTruncated bool   `json:"trace_truncated,omitempty"`
}

// LaneInfos summarizes every lane. Scalar sessions report one lane (always
// live), so clients can treat every session uniformly.
func (s *Session) LaneInfos() ([]LaneInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, s.errClosed()
	}
	infos := make([]LaneInfo, s.lanes)
	live := s.eng.LiveMask()
	for l := range infos {
		st := s.eng.LaneStats(l)
		infos[l] = LaneInfo{Lane: l, Live: live>>l&1 != 0, Cycles: st.Cycles, Instrs: st.InstrsExecuted}
		if s.laneVCD != nil && s.laneVCD[l] != nil {
			infos[l].Traced = true
			infos[l].TraceTruncated = s.laneVCD[l].sink.truncated
		} else if s.pendingTrace != nil && s.pendingTrace[l] {
			infos[l].Traced = true // armed on first restore (TraceResume)
		}
	}
	return infos, nil
}

// FetchVCD flushes and returns one lane's captured waveform text. The lane
// must have been opted in at creation (SessionSpec.TraceLanes). truncated
// reports whether the capture hit its byte cap and lost the tail.
func (s *Session) FetchVCD(lane int) (vcd []byte, truncated bool, err error) {
	s.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, s.errClosed()
	}
	if err := s.checkLane(lane); err != nil {
		return nil, false, fmt.Errorf("server: %w", err)
	}
	if s.laneVCD == nil || s.laneVCD[lane] == nil {
		return nil, false, fmt.Errorf("server: lane %d is not traced (opt in with trace_lanes at creation)", lane)
	}
	lt := s.laneVCD[lane]
	if err := lt.vcd.Flush(); err != nil {
		return nil, false, err
	}
	// Copy under the lock: the caller writes the response after we release,
	// and a concurrent step batch may append to the buffer meanwhile.
	out := append([]byte(nil), lt.sink.buf.Bytes()...)
	return out, lt.sink.truncated, nil
}

// Throughput reports the session's cumulative step throughput in kHz (0 when
// it has not stepped). Gang sessions count lane-cycles — K live lanes
// stepping N cycles is K*N — so this is aggregate simulated work per second.
func (s *Session) Throughput() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stepTime <= 0 {
		return 0
	}
	return float64(s.steps) / s.stepTime.Seconds() / 1000
}

// Close releases the session's engine, unregisters it, and unpins its design
// in the compile cache. Idempotent: a Close racing the first one returns
// once that one has unregistered the session, so a Drain that returns nil
// leaves no session behind.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.closeDone
		return nil
	}
	s.closed = true
	// Fold any unflushed engine work into the process counters before the
	// engine is released — a session's tail cycles must not vanish.
	s.eng.FlushObs()
	s.liveLanes.Store(0)
	s.lastCycles = s.eng.Cycles()
	s.eng.Close()
	for _, lt := range s.laneVCD {
		if lt != nil {
			_ = lt.vcd.Close()
		}
	}
	s.mu.Unlock()

	s.mgr.mu.Lock()
	delete(s.mgr.sessions, s.ID)
	if mt := s.mgr.Metrics(); mt != nil {
		mt.SessionsClosed.Inc()
	}
	s.mgr.log().Info("session closed", "session", s.ID, "cycles", s.lastCycles)
	s.mgr.mu.Unlock()
	s.mgr.cache.Release(s.cacheKey)
	close(s.closeDone)
	return nil
}
