// HTTP+JSON transport for the session manager — the cmd/gsim-serve API.
//
// Endpoints (all JSON bodies; errors are {"error": "..."} with 4xx/5xx):
//
//	POST   /v1/sessions               create a session ("lanes" > 1: K engines in lockstep)
//	GET    /v1/sessions               list live sessions
//	POST   /v1/sessions/{id}/ops      apply a batched op list atomically
//	GET    /v1/sessions/{id}/lanes    per-lane liveness, cycles, trace status
//	GET    /v1/sessions/{id}/vcd      fetch a traced lane's waveform (?lane=N)
//	POST   /v1/sessions/{id}/snapshot serialize one lane's state (base64 blob; ?lane=N, default 0)
//	POST   /v1/sessions/{id}/restore  overwrite one lane's state from a blob (?lane=N, default 0)
//	DELETE /v1/sessions/{id}          close a session
//	GET    /v1/stats                  manager + compile-cache counters
//	GET    /healthz                   liveness (200 while the process runs)
//	GET    /readyz                    readiness (503 the moment a drain begins)
//	POST   /admin/drain               begin a migration-window drain (refuse new
//	                                  sessions, keep serving existing ones)
//
// Failure semantics: admission refusals are 429 (too many in-flight ops,
// step budget) or 503 (session limit, draining) with a Retry-After header; a
// poisoned session reports 500 with the panic and stack in the body; a
// canceled or deadline-exceeded op batch reports 408 with the partial
// results; a request body over Limits.MaxBodyBytes reports 413.
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsim/internal/snapshot"
)

// CreateRequest is the POST /v1/sessions body: the design source plus the
// session spec (flattened).
type CreateRequest struct {
	FIRRTL string `json:"firrtl"`
	SessionSpec
	// Eval and Coarsen are decoded only to be refused. Both left the
	// session spec; a body that still names one gets a 400 naming the field
	// instead of silently running another engine than it asked for.
	Eval    json.RawMessage `json:"eval,omitempty"`
	Coarsen json.RawMessage `json:"coarsen,omitempty"`
}

// Validate refuses a create body without a design source, naming a removed
// field or carrying a spec no session may run. The server and the fleet
// router both apply it.
func (r *CreateRequest) Validate() error {
	if err := r.SessionSpec.validate(); err != nil {
		return err
	}
	if r.Eval != nil {
		return errors.New(`the session spec field "eval" was removed: every session runs the fused kernel stream`)
	}
	if r.Coarsen != nil {
		return errors.New(`the session spec field "coarsen" was removed: every multi-worker session runs the merged-level schedule`)
	}
	if r.FIRRTL == "" {
		return errors.New("firrtl source required")
	}
	return nil
}

// CreateResponse reports the opened session and how its compile was served.
type CreateResponse struct {
	Session    string  `json:"session"`
	DesignHash string  `json:"design_hash"`
	CacheHit   bool    `json:"cache_hit"`
	CompileMS  float64 `json:"compile_ms"` // the shared compile's cost (paid once per cache entry)
	Nodes      int     `json:"nodes"`
}

// OpsRequest is the POST /v1/sessions/{id}/ops body.
type OpsRequest struct {
	Ops []Op `json:"ops"`
}

// OpsResponse carries one result per completed op.
type OpsResponse struct {
	Results []OpResult `json:"results"`
}

// SnapshotResponse carries a serialized state blob.
type SnapshotResponse struct {
	Snapshot string `json:"snapshot"` // base64 of the internal/snapshot format
	Bytes    int    `json:"bytes"`
	Cycles   uint64 `json:"cycles"`
}

// RestoreRequest is the POST /v1/sessions/{id}/restore body.
type RestoreRequest struct {
	Snapshot string `json:"snapshot"` // base64 of the internal/snapshot format
	// TracePrefix carries the waveform bytes a migrated session captured on
	// its previous home (base64). Valid only on a lane created with
	// trace_resume: the prefix seeds the lane's capture buffer and the
	// restored state arms its continuation tracer.
	TracePrefix string `json:"trace_prefix,omitempty"`
}

// RestoreResponse reports the resumed cycle count.
type RestoreResponse struct {
	Cycles uint64 `json:"cycles"`
}

// SessionInfo is one GET /v1/sessions entry.
type SessionInfo struct {
	Session    string `json:"session"`
	DesignHash string `json:"design_hash"`
	Cycles     uint64 `json:"cycles"`
	Lanes      int    `json:"lanes,omitempty"`  // > 1 for gang sessions
	Failed     bool   `json:"failed,omitempty"` // poisoned by a panic
}

// VCDResponse is the GET /v1/sessions/{id}/vcd body.
type VCDResponse struct {
	Lane      int    `json:"lane"`
	VCD       string `json:"vcd"` // waveform text
	Bytes     int    `json:"bytes"`
	Truncated bool   `json:"truncated,omitempty"` // capture hit its byte cap
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	Sessions        int    `json:"sessions"`
	Designs         int    `json:"designs"`
	CacheHits       uint64 `json:"cache_hits"`
	CacheMisses     uint64 `json:"cache_misses"`
	CacheBytes      int64  `json:"cache_bytes"`
	CacheBudget     int64  `json:"cache_budget,omitempty"` // 0 = unlimited
	CacheEvictions  uint64 `json:"cache_evictions"`
	InFlightOps     int64  `json:"in_flight_ops"`
	Draining        bool   `json:"draining,omitempty"`
	MaxSessions     int    `json:"max_sessions,omitempty"`
	MaxInFlightOps  int    `json:"max_in_flight_ops,omitempty"`
	MaxStepsPerOp   int    `json:"max_steps_per_batch,omitempty"`
	SessionIdleSecs int    `json:"session_idle_secs,omitempty"`
}

// Handler returns the manager's HTTP API.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", m.handleCreate)
	mux.HandleFunc("GET /v1/sessions", m.handleList)
	mux.HandleFunc("POST /v1/sessions/{id}/ops", m.withSession(m.handleOps))
	mux.HandleFunc("GET /v1/sessions/{id}/lanes", m.withSession(handleLanes))
	mux.HandleFunc("GET /v1/sessions/{id}/vcd", m.withSession(handleVCD))
	mux.HandleFunc("POST /v1/sessions/{id}/snapshot", m.withSession(handleSnapshot))
	mux.HandleFunc("POST /v1/sessions/{id}/restore", m.withSession(m.handleRestore))
	mux.HandleFunc("DELETE /v1/sessions/{id}", m.withSession(handleClose))
	mux.HandleFunc("GET /v1/stats", m.handleStats)
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	mux.HandleFunc("GET /healthz", m.handleHealthz)
	mux.HandleFunc("GET /readyz", m.handleReadyz)
	mux.HandleFunc("POST /admin/drain", m.handleAdminDrain)
	return m.withObs(mux)
}

// RequestIDHeader carries a request's correlation ID. The router stamps it
// when proxying; withObs generates one for direct requests. The value is
// echoed on the response and attached to every access-log line, so one ID
// follows a request across the fleet hop. It is spelled the way net/http
// canonicalises X-Gsim-Request-ID (header names are case-insensitive), so
// the Header.Get/Set calls on every request do not allocate a respelled key
// and the name can index an http.Header directly.
const RequestIDHeader = "X-Gsim-Request-Id"

// reqSeq numbers locally generated request IDs.
var reqSeq atomic.Uint64

// statusWriter records the status a handler wrote (200 when it never calls
// WriteHeader explicitly).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// withObs is the transport-level observability middleware: it assigns (or
// propagates) the request ID, counts the request, and emits one structured
// access-log line with method, path, session, status, and duration. With the
// default NopLogger nothing is formatted.
func (m *Manager) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = "local-" + strconv.FormatUint(reqSeq.Add(1), 10)
		}
		w.Header().Set(RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if mt := m.Metrics(); mt != nil {
			mt.httpReqs.Inc()
		}
		logger := m.log()
		if !logger.Enabled(r.Context(), slog.LevelInfo) {
			return
		}
		attrs := []any{
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(time.Since(start).Microseconds()) / 1000,
		}
		if sid := sessionFromPath(r.URL.Path); sid != "" {
			attrs = append(attrs, "session", sid)
		}
		logger.Info("http request", attrs...)
	})
}

// sessionFromPath extracts the {id} segment of /v1/sessions/{id}/... routes
// (the middleware runs outside the mux, so PathValue is not populated yet).
func sessionFromPath(p string) string {
	rest, ok := strings.CutPrefix(p, "/v1/sessions/")
	if !ok || rest == "" {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// handleMetrics serves the Prometheus text exposition of the registry wired
// by InitObs; 404 until the manager is instrumented.
func (m *Manager) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mt := m.Metrics()
	if mt == nil {
		http.NotFound(w, r)
		return
	}
	mt.Registry().Handler().ServeHTTP(w, r)
}

// handleAdminDrain begins a migration-window drain: readiness flips to 503
// and new sessions are refused immediately, but live sessions keep serving so
// a fleet router can snapshot and move them before the process is retired.
// Idempotent; reports how many sessions are still homed here.
func (m *Manager) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	m.BeginDrain()
	writeJSON(w, http.StatusOK, map[string]any{
		"draining": true,
		"sessions": m.SessionCount(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// errStatus maps a manager error to an HTTP status and whether the condition
// is worth retrying (Retry-After). Admission refusals are the caller's cue to
// back off: 429 for transient per-request pressure, 503 for capacity and
// shutdown. A poisoned session is a server fault (500). Cancellation and
// deadline expiry are 408. Everything else is validation (400).
func errStatus(err error) (status int, retryable bool) {
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrTooManySessions):
		return http.StatusServiceUnavailable, true
	case errors.Is(err, ErrTooManyInFlight), errors.Is(err, ErrStepBudget):
		return http.StatusTooManyRequests, true
	case errors.Is(err, ErrSessionFailed):
		return http.StatusInternalServerError, false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, false
	}
	return http.StatusBadRequest, false
}

// writeManagerError renders err with its mapped status, attaching Retry-After
// on backpressure statuses so well-behaved clients shed load instead of
// hammering.
func writeManagerError(w http.ResponseWriter, err error, extra any) {
	status, retryable := errStatus(err)
	if retryable {
		w.Header().Set("Retry-After", "1")
	}
	if extra != nil {
		writeJSON(w, status, extra)
		return
	}
	writeError(w, status, err)
}

// DecodeBody decodes a JSON request body under a byte cap (limit <= 0: none)
// and writes the error response itself on failure (413 when the cap is hit,
// 400 for malformed JSON). Every JSON-consuming handler of the server and of
// the fleet router funnels through here: request bodies were previously read
// unbounded, so one oversized POST could balloon the heap before validation
// ever saw it.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body := r.Body
	if limit > 0 {
		body = http.MaxBytesReader(w, r.Body, limit)
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return false
	}
	return true
}

// laneParam parses an optional ?lane=N query (default 0).
func laneParam(r *http.Request) (int, error) {
	q := r.URL.Query().Get("lane")
	if q == "" {
		return 0, nil
	}
	lane, err := strconv.Atoi(q)
	if err != nil {
		return 0, fmt.Errorf("bad lane %q: %v", q, err)
	}
	return lane, nil
}

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if !DecodeBody(w, r, m.limits.MaxBodyBytes, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s, err := m.CreateSession(req.FIRRTL, req.SessionSpec)
	if err != nil {
		writeManagerError(w, err, nil)
		return
	}
	writeJSON(w, http.StatusCreated, CreateResponse{
		Session:    s.ID,
		DesignHash: s.Design.DesignHash(),
		CacheHit:   s.CacheHit,
		CompileMS:  float64(s.Design.CompileTime.Microseconds()) / 1000,
		Nodes:      len(s.Design.Graph.Nodes),
	})
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	ids := m.SessionIDs()
	sort.Strings(ids)
	infos := make([]SessionInfo, 0, len(ids))
	for _, id := range ids {
		s, err := m.Session(id)
		if err != nil {
			continue // closed concurrently
		}
		infos = append(infos, SessionInfo{
			Session:    s.ID,
			DesignHash: s.Design.DesignHash(),
			Cycles:     s.Cycles(),
			Lanes:      s.Lanes(),
			Failed:     s.Failed() != nil,
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

func (m *Manager) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := m.CacheStats()
	l := m.Limits()
	writeJSON(w, http.StatusOK, StatsResponse{
		Sessions:        m.SessionCount(),
		Designs:         cs.Designs,
		CacheHits:       cs.Hits,
		CacheMisses:     cs.Misses,
		CacheBytes:      cs.Bytes,
		CacheBudget:     cs.Budget,
		CacheEvictions:  cs.Evictions,
		InFlightOps:     m.InFlightOps(),
		Draining:        m.Draining(),
		MaxSessions:     l.MaxSessions,
		MaxInFlightOps:  l.MaxInFlightOps,
		MaxStepsPerOp:   l.MaxStepsPerBatch,
		SessionIdleSecs: int(l.IdleTimeout.Seconds()),
	})
}

// handleHealthz is liveness: the process is up and serving.
func (m *Manager) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 once draining so load balancers stop
// routing new work here while in-flight sessions finish.
func (m *Manager) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if m.Draining() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// withSession resolves the {id} path segment before dispatching.
func (m *Manager) withSession(h func(s *Session, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, err := m.Session(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		h(s, w, r)
	}
}

// opsScratch is the working set of one ops request: body bytes, decoded ops
// and encoded reply. Pooled, not kept per connection or session, so an idle
// replica retains none of it past a collection.
type opsScratch struct {
	body []byte
	req  OpsRequest
	out  []byte
}

var opsPool = sync.Pool{New: func() any { return new(opsScratch) }}

// maxPooledOps bounds what a scratch keeps between requests: this many body
// or reply bytes, and a 64th as many op slots (64 bytes each).
const maxPooledOps = 64 << 10

// release returns sc to the pool. The op slots are zeroed first: json decodes
// into a reused slot without clearing the fields a later request omits.
func (sc *opsScratch) release() {
	if cap(sc.body) > maxPooledOps || cap(sc.out) > maxPooledOps || cap(sc.req.Ops) > maxPooledOps/64 {
		return
	}
	clear(sc.req.Ops)
	sc.req.Ops = sc.req.Ops[:0]
	opsPool.Put(sc)
}

// decodeOps decodes the request body into sc.req and writes the error
// response itself on failure. A body of small known length — every ordinary
// batch — is read whole into the pooled buffer and unmarshalled there, where
// bytes trailing the JSON value are an error; anything else streams through
// DecodeBody and its byte cap.
func (m *Manager) decodeOps(w http.ResponseWriter, r *http.Request, sc *opsScratch) bool {
	n := r.ContentLength
	if limit := m.limits.MaxBodyBytes; n <= 0 || n > maxPooledOps || (limit > 0 && n > limit) {
		return DecodeBody(w, r, limit, &sc.req)
	}
	if int64(cap(sc.body)) < n {
		sc.body = make([]byte, n, max(n, 512))
	}
	sc.body = sc.body[:n]
	_, err := io.ReadFull(r.Body, sc.body)
	if err == nil {
		err = json.Unmarshal(sc.body, &sc.req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return false
	}
	return true
}

func (m *Manager) handleOps(s *Session, w http.ResponseWriter, r *http.Request) {
	sc := opsPool.Get().(*opsScratch)
	defer sc.release()
	if !m.decodeOps(w, r, sc) {
		return
	}
	// The per-request deadline: a runaway batch (a client asking for a
	// billion cycles) stops at the next chunk boundary instead of holding
	// the session lock forever.
	ctx := r.Context()
	if d := m.Limits().OpTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	results, err := s.Apply(ctx, sc.req.Ops)
	if err != nil {
		// A failed batch is not rolled back — ops before the failing one did
		// run (steps advanced the session). Return their results alongside
		// the error so the client knows how far the batch applied.
		writeManagerError(w, err, struct {
			Error   string     `json:"error"`
			Results []OpResult `json:"results"`
		}{err.Error(), results})
		return
	}
	sc.out = appendOpsResponse(sc.out[:0], results)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(sc.out)))
	_, _ = w.Write(sc.out)
}

// appendOpsResponse appends what json.NewEncoder(w).Encode(OpsResponse{results})
// writes — same field order, omissions, escaping and trailing newline — with
// no reflection and no intermediate buffer. FuzzOpsJSON holds the two equal.
func appendOpsResponse(dst []byte, results []OpResult) []byte {
	if results == nil {
		return append(dst, "{\"results\":null}\n"...)
	}
	dst = append(dst, `{"results":[`...)
	for i := range results {
		res := &results[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(append(dst, `{"op":`...), res.Op)
		if res.Name != "" {
			dst = appendJSONString(append(dst, `,"name":`...), res.Name)
		}
		if res.Value != "" {
			dst = appendJSONString(append(dst, `,"value":`...), res.Value)
		}
		if res.Cycles != 0 {
			dst = strconv.AppendUint(append(dst, `,"cycles":`...), res.Cycles, 10)
		}
		if res.Lane != nil {
			dst = strconv.AppendInt(append(dst, `,"lane":`...), int64(*res.Lane), 10)
		}
		if res.Error != "" {
			dst = appendJSONString(append(dst, `,"error":`...), res.Error)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// appendJSONString appends s as a JSON string. Names, literals and values
// are printable ASCII with nothing to escape and are copied; anything else
// (a panic's stack in Error, a hostile name) goes through encoding/json, so
// escaping is its by construction.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string cannot fail to encode
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func handleSnapshot(s *Session, w http.ResponseWriter, r *http.Request) {
	lane, err := laneParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	data, err := s.SnapshotLane(lane)
	if err != nil {
		writeManagerError(w, err, nil)
		return
	}
	// The cycle count comes from the blob's own header, not a second (and
	// racy) session read: a concurrent step batch could advance the session
	// between Save and here.
	h, err := snapshot.ReadHeader(data)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{
		Snapshot: base64.StdEncoding.EncodeToString(data),
		Bytes:    len(data),
		Cycles:   h.Cycles,
	})
}

func (m *Manager) handleRestore(s *Session, w http.ResponseWriter, r *http.Request) {
	var req RestoreRequest
	if !DecodeBody(w, r, m.limits.MaxBodyBytes, &req) {
		return
	}
	lane, err := laneParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	data, err := base64.StdEncoding.DecodeString(req.Snapshot)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad snapshot encoding: %v", err))
		return
	}
	var prefix []byte
	if req.TracePrefix != "" {
		prefix, err = base64.StdEncoding.DecodeString(req.TracePrefix)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace_prefix encoding: %v", err))
			return
		}
	}
	if err := s.RestoreLaneTrace(lane, data, prefix); err != nil {
		writeManagerError(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, RestoreResponse{Cycles: s.Cycles()})
}

func handleLanes(s *Session, w http.ResponseWriter, r *http.Request) {
	infos, err := s.LaneInfos()
	if err != nil {
		writeManagerError(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, infos)
}

func handleVCD(s *Session, w http.ResponseWriter, r *http.Request) {
	lane, err := laneParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	vcd, truncated, err := s.FetchVCD(lane)
	if err != nil {
		writeManagerError(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, VCDResponse{
		Lane:      lane,
		VCD:       string(vcd),
		Bytes:     len(vcd),
		Truncated: truncated,
	})
}

func handleClose(s *Session, w http.ResponseWriter, r *http.Request) {
	_ = s.Close()
	writeJSON(w, http.StatusOK, map[string]string{"closed": s.ID})
}
