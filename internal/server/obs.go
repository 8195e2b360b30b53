// Observability for the session manager: the server-layer metric bundle,
// the wiring that threads one obs.Registry through every layer a replica
// owns (engines, trace pipelines, compile cache), and the slog plumbing the
// HTTP transport and fault paths log through.
package server

import (
	"log/slog"
	"math/bits"

	"gsim/internal/core"
	"gsim/internal/engine"
	"gsim/internal/obs"
	"gsim/internal/trace"
)

// opKinds is the closed set of Op.Op values; per-op metrics are pre-created
// per kind so the hot path is a map lookup, never a registration.
var opKinds = []string{"poke", "peek", "step", "reset", "park", "wake"}

// rejectCauses labels the admission-refusal counter.
const (
	rejectDraining   = "draining"
	rejectSessions   = "session_limit"
	rejectInFlight   = "inflight_limit"
	rejectStepBudget = "step_budget"
)

// Metrics is the server-layer bundle plus the per-layer bundles a replica
// threads through its engines, trace pipelines, and compile cache. Built by
// Manager.InitObs; nil on an uninstrumented manager (the default, keeping
// tests and benchmarks at zero overhead).
type Metrics struct {
	reg *obs.Registry

	// Engine / trace / cache bundles shared by every session.
	Engine *engine.Metrics
	Trace  *trace.Metrics
	Cache  *core.CacheMetrics

	SessionsCreated *obs.Counter
	SessionsClosed  *obs.Counter
	SessionsFailed  *obs.Counter
	SessionsReaped  *obs.Counter

	rejects   map[string]*obs.Counter   // by cause
	opLatency map[string]*obs.Histogram // by op kind
	opCount   map[string]*obs.Counter   // by op kind
	httpReqs  *obs.Counter

	StepCycles *obs.Counter
}

// Registry returns the registry this bundle registered into (the one
// /metrics serves).
func (mt *Metrics) Registry() *obs.Registry { return mt.reg }

// traceMetrics returns the trace bundle, surviving a nil receiver so
// uninstrumented managers pass nil through to trace.Options.Metrics.
func (mt *Metrics) traceMetrics() *trace.Metrics {
	if mt == nil {
		return nil
	}
	return mt.Trace
}

// InitObs instruments the manager: the server metric family registers in r,
// the engine/trace/cache bundles are created there too, the compile cache
// starts crediting it, and Handler() gains a GET /metrics route serving r.
// Idempotent in effect (re-registration returns the same series); sessions
// created before the call are not retroactively attached.
func (m *Manager) InitObs(r *obs.Registry) *Metrics {
	mt := &Metrics{
		reg:    r,
		Engine: engine.NewMetrics(r),
		Trace:  trace.NewMetrics(r),
		Cache:  core.NewCacheMetrics(r),

		SessionsCreated: r.Counter("gsim_server_sessions_created_total", "Sessions opened."),
		SessionsClosed:  r.Counter("gsim_server_sessions_closed_total", "Sessions closed (all causes)."),
		SessionsFailed:  r.Counter("gsim_server_sessions_failed_total", "Sessions poisoned by a panic."),
		SessionsReaped:  r.Counter("gsim_server_sessions_reaped_total", "Sessions closed by the idle reaper."),

		rejects:   map[string]*obs.Counter{},
		opLatency: map[string]*obs.Histogram{},
		opCount:   map[string]*obs.Counter{},
		httpReqs:  r.Counter("gsim_server_http_requests_total", "HTTP requests served."),

		StepCycles: r.Counter("gsim_server_step_cycles_total", "Lane-cycles stepped through ops batches."),
	}
	for _, cause := range []string{rejectDraining, rejectSessions, rejectInFlight, rejectStepBudget} {
		mt.rejects[cause] = r.Counter("gsim_server_admission_rejects_total",
			"Requests refused by admission control, by cause.", obs.L("cause", cause))
	}
	for _, kind := range opKinds {
		mt.opLatency[kind] = r.Histogram("gsim_server_op_latency_seconds",
			"Latency of individual session ops, by kind.", nil, obs.L("op", kind))
		mt.opCount[kind] = r.Counter("gsim_server_ops_total",
			"Session ops executed, by kind.", obs.L("op", kind))
	}
	r.GaugeFunc("gsim_server_sessions", "Live sessions.", func() float64 {
		return float64(m.SessionCount())
	})
	r.GaugeFunc("gsim_server_inflight_ops", "Op batches admitted and executing.", func() float64 {
		return float64(m.InFlightOps())
	})
	r.GaugeFunc("gsim_server_gang_lanes_live", "Live (unparked) gang lanes across sessions.", func() float64 {
		return float64(m.liveLanes())
	})
	m.cache.SetObs(mt.Cache)
	m.metrics.Store(mt)
	return mt
}

// Metrics returns the bundle attached by InitObs, or nil.
func (m *Manager) Metrics() *Metrics { return m.metrics.Load() }

// SetLogger routes the manager's structured logging (session lifecycle,
// poison events, HTTP access) through l. The default is obs.NopLogger(),
// keeping tests quiet; nil resets to it.
func (m *Manager) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.NopLogger()
	}
	m.logger.Store(l)
}

// log returns the manager's logger (never nil).
func (m *Manager) log() *slog.Logger { return m.logger.Load() }

// liveLanes sums unparked gang lanes across sessions. Each session maintains
// its count in an atomic (updated on create, park/wake, close), so the
// scrape never touches a session lock an in-flight step batch may hold.
func (m *Manager) liveLanes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, s := range m.sessions {
		total += s.liveLanes.Load()
	}
	return total
}

// reject credits one admission refusal (no-op without metrics).
func (mt *Metrics) reject(cause string) {
	if mt == nil {
		return
	}
	if c, ok := mt.rejects[cause]; ok {
		c.Inc()
	}
}

// opDone credits one completed op (no-op without metrics).
func (mt *Metrics) opDone(kind string, seconds float64) {
	if mt == nil {
		return
	}
	if h, ok := mt.opLatency[kind]; ok {
		h.Observe(seconds)
	}
	if c, ok := mt.opCount[kind]; ok {
		c.Inc()
	}
}

// syncLiveLanes refreshes the session's unparked-lane count from the
// engine's live mask. Caller holds s.mu.
func (s *Session) syncLiveLanes() {
	s.liveLanes.Store(int64(bits.OnesCount64(s.eng.LiveMask())))
}
