package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsim/internal/obs"
	"gsim/internal/server"
	"gsim/internal/snapshot"
)

// Config tunes a Router. The zero value is usable; DefaultConfig fills in
// production defaults.
type Config struct {
	// Vnodes per replica on the placement ring (0 = DefaultVnodes).
	Vnodes int
	// HeartbeatTTL marks a replica dead when its last heartbeat is older
	// than this. 0 disables heartbeat expiry (probing still applies).
	HeartbeatTTL time.Duration
	// ProbeInterval is the cadence of the background health prober. <= 0
	// disables the prober goroutine (tests call CheckHealth directly).
	ProbeInterval time.Duration
	// ProbeFailThreshold is how many consecutive failed /readyz probes turn
	// a replica unhealthy (0 = 3).
	ProbeFailThreshold int
	// MigrationRetries bounds how many alternate targets a migration (or a
	// racing create) tries before giving up (0 = 4).
	MigrationRetries int
	// RetryBackoff is the base backoff between migration retries, doubled
	// per attempt (0 = 25ms).
	RetryBackoff time.Duration
	// SnapshotBudget bounds the content-addressed handoff store, bytes
	// (0 = 1 GiB). Blobs of in-flight migrations are pinned and never
	// evicted regardless of budget.
	SnapshotBudget int64
	// MaxBodyBytes caps request bodies the router itself decodes (create,
	// replica registration); a larger body is refused with 413. 0 = 256 MiB.
	// Proxied bodies stream through and are capped by the replica's own limit.
	MaxBodyBytes int64
	// HTTPClient overrides the client used for all replica traffic.
	HTTPClient *http.Client
}

// DefaultConfig returns production defaults.
func DefaultConfig() Config {
	return Config{
		HeartbeatTTL:  10 * time.Second,
		ProbeInterval: 2 * time.Second,
	}
}

func (c *Config) fill() {
	if c.Vnodes <= 0 {
		c.Vnodes = DefaultVnodes
	}
	if c.ProbeFailThreshold <= 0 {
		c.ProbeFailThreshold = 3
	}
	if c.MigrationRetries <= 0 {
		c.MigrationRetries = 4
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.SnapshotBudget <= 0 {
		c.SnapshotBudget = 1 << 30
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 5 * time.Minute}
	}
}

// Router is the stateless fleet front-end: it owns no simulation state, only
// the session table mapping public session IDs to (replica, backend session)
// pairs, the replica registry, and the placement ring. Sessions are placed by
// consistent-hashing their design placement key so every session of one
// design lands on the same replica and shares its compiled artifact; all /v1
// traffic is proxied sticky to the session's current home; draining a replica
// live-migrates its sessions to the ring minus that replica.
type Router struct {
	cfg   Config
	store *snapshot.Store // FIRRTL sources + migration checkpoint handoff

	mu       sync.Mutex
	replicas map[string]*Replica
	ring     *Ring
	sessions map[string]*fleetSession
	nextID   uint64

	// Read on every proxied request, so not under mu.
	metrics atomic.Pointer[RouterMetrics] // nil until InitObs
	logger  atomic.Pointer[slog.Logger]   // never nil (obs.NopLogger default)

	migrated    atomic.Uint64 // sessions successfully migrated
	migrateFail atomic.Uint64 // sessions whose migration failed
	lost        atomic.Uint64 // sessions dropped because their home died

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// fleetSession is one routed session. The RWMutex is the migration gate:
// proxied requests hold it shared for the duration of the backend round trip,
// migration holds it exclusive — so a migration observes no in-flight ops
// (the snapshot is taken at a quiescent point) and proxied requests never see
// a half-moved session; they block briefly and land on the new home.
type fleetSession struct {
	id        string // public ID ("f1", "f2", ...)
	placeKey  string // consistent-hash placement key
	sourceKey string // content-store key of the FIRRTL source (pinned)
	spec      server.SessionSpec

	mu         sync.RWMutex
	replica    string   // current home (registry name)
	base       *url.URL // the home's base URL as parsed at its registration
	backendID  string   // session ID on that replica
	designHash string
	closed     bool
}

// NewRouter builds a router and, when cfg.ProbeInterval > 0, starts its
// background health prober. Close releases it.
func NewRouter(cfg Config) *Router {
	cfg.fill()
	rt := &Router{
		cfg:      cfg,
		store:    snapshot.NewStore(cfg.SnapshotBudget),
		replicas: make(map[string]*Replica),
		ring:     BuildRing(nil, cfg.Vnodes),
		sessions: make(map[string]*fleetSession),
		stop:     make(chan struct{}),
	}
	rt.logger.Store(obs.NopLogger())
	if cfg.ProbeInterval > 0 {
		rt.wg.Add(1)
		go rt.probeLoop()
	}
	return rt
}

// Close stops the router's background goroutines. It does not touch replica
// state: a router restart must be invisible to the fleet.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// PlacementKey derives the consistent-hash key for a session: the SHA-256 of
// the FIRRTL source plus every spec field that feeds the compile cache.
// Lanes and trace options are deliberately absent — they are per-session
// execution knobs, invisible to the compile, so scalar sessions and gangs of
// any width for one design co-locate and share a single compiled artifact.
// (The true DesignHash only exists after compiling; with deterministic
// compiles, equal placement keys imply equal design hashes, which is all
// affinity needs.) Unset and one-worker thread counts build the same engine,
// so they share a key.
func PlacementKey(firrtl string, spec server.SessionSpec) string {
	h := sha256.New()
	io.WriteString(h, firrtl)
	fmt.Fprintf(h, "|engine=%s|threads=%d|coarsen=%t|maxsup=%d",
		spec.Engine, max(spec.Threads, 1), spec.Coarsen, spec.MaxSupernode)
	return hex.EncodeToString(h.Sum(nil))
}

// Register adds or refreshes a replica (the programmatic form of
// POST /fleet/replicas). Re-registration after death or with a new URL means
// a new process: sessions homed on the old incarnation are gone, so the
// router drops them from its table.
func (rt *Router) Register(name, url string) {
	now := time.Now()
	rt.mu.Lock()
	prev, existed := rt.replicas[name]
	newProcess := existed && (prev.State == StateDead || prev.URL != url)
	rt.registerLocked(name, url, now)
	var table []*fleetSession
	if newProcess {
		// Taken with the registration, so sessions placed on the new
		// process afterwards are not mistaken for the old one's.
		table = rt.tableLocked()
	}
	rt.mu.Unlock()
	rt.log().Info("replica registered", "replica", name, "url", url, "new_process", newProcess)
	for _, fs := range homedOn(table, name) {
		rt.dropSession(fs, "home replica restarted")
	}
}

// tableLocked copies the session table. Caller holds rt.mu.
func (rt *Router) tableLocked() []*fleetSession {
	all := make([]*fleetSession, 0, len(rt.sessions))
	for _, fs := range rt.sessions {
		all = append(all, fs)
	}
	return all
}

// sortByID orders sessions by public ID.
func sortByID(s []*fleetSession) {
	sort.Slice(s, func(i, j int) bool { return s[i].id < s[j].id })
}

// homedOn returns the open sessions of table currently homed on name, by
// ID, reading each under its own gate. The caller must not hold rt.mu:
// migration holds a gate while it takes rt.mu (pickReplica, replicaByName),
// so waiting on a gate under rt.mu deadlocks against it.
func homedOn(table []*fleetSession, name string) []*fleetSession {
	var out []*fleetSession
	for _, fs := range table {
		fs.mu.RLock()
		if fs.replica == name && !fs.closed {
			out = append(out, fs)
		}
		fs.mu.RUnlock()
	}
	sortByID(out)
	return out
}

// dropSession removes a session whose simulation state is unrecoverable
// (its home died). Subsequent requests for it return 404.
func (rt *Router) dropSession(fs *fleetSession, reason string) {
	fs.mu.Lock()
	already := fs.closed
	fs.closed = true
	fs.mu.Unlock()
	if already {
		return
	}
	rt.mu.Lock()
	delete(rt.sessions, fs.id)
	rt.mu.Unlock()
	rt.store.Unpin(fs.sourceKey)
	rt.lost.Add(1)
	if rm := rt.Metrics(); rm != nil {
		rm.SessionsLost.Inc()
	}
	rt.log().Warn("session lost", "session", fs.id, "reason", reason)
}

// pickReplica resolves the placement for key among ready replicas, skipping
// the excluded set. Returns a copy of the chosen replica.
func (rt *Router) pickReplica(key string, exclude map[string]bool) (Replica, bool) {
	if rm := rt.Metrics(); rm != nil {
		rm.PlacementLookups.Inc()
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	name, ok := rt.ring.Lookup(key, func(n string) bool {
		if exclude[n] {
			return true
		}
		r, present := rt.replicas[n]
		return !present || r.State != StateReady
	})
	if !ok {
		return Replica{}, false
	}
	return *rt.replicas[name], true
}

func (rt *Router) clientFor(r Replica) *replicaClient {
	return &replicaClient{base: r.URL, http: rt.cfg.HTTPClient}
}

// clientForReq is clientFor carrying the inbound request's correlation ID,
// so replica calls made on behalf of req (session creates, closes) appear in
// the replica's access log under the same ID as the routed request itself.
func (rt *Router) clientForReq(r Replica, req *http.Request) *replicaClient {
	c := rt.clientFor(r)
	c.reqID = req.Header.Get(server.RequestIDHeader)
	return c
}

// Handler returns the router's HTTP API: the full /v1 surface (proxied), the
// /fleet control plane, and health endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	mux.HandleFunc("GET /v1/sessions", rt.handleList)
	mux.HandleFunc("POST /v1/sessions/{id}/ops", rt.proxySession)
	mux.HandleFunc("GET /v1/sessions/{id}/lanes", rt.proxySession)
	mux.HandleFunc("GET /v1/sessions/{id}/vcd", rt.proxySession)
	mux.HandleFunc("POST /v1/sessions/{id}/snapshot", rt.proxySession)
	mux.HandleFunc("POST /v1/sessions/{id}/restore", rt.proxySession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.handleClose)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("POST /fleet/replicas", rt.handleRegister)
	mux.HandleFunc("POST /fleet/replicas/{name}/heartbeat", rt.handleHeartbeat)
	mux.HandleFunc("POST /fleet/replicas/{name}/drain", rt.handleDrainReplica)
	mux.HandleFunc("GET /fleet", rt.handleFleet)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt.withObs(mux)
}

// handleMetrics serves the registry wired by InitObs; 404 until then.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rm := rt.Metrics()
	if rm == nil {
		http.NotFound(w, r)
		return
	}
	rm.Registry().Handler().ServeHTTP(w, r)
}

// routerReqSeq numbers request IDs the router originates.
var routerReqSeq atomic.Uint64

// routerStatusWriter records the status written to a routed response.
type routerStatusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *routerStatusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (sw *routerStatusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// ReadFrom keeps the wrapped writer's io.ReaderFrom reachable: net/http's
// copies through a pooled buffer, where io.Copy into a writer without
// ReadFrom allocates 32 KiB per proxied response.
func (sw *routerStatusWriter) ReadFrom(src io.Reader) (int64, error) {
	return io.Copy(sw.ResponseWriter, src)
}

// withObs assigns each request its fleet-wide correlation ID (stamped into
// the request headers so forward propagates it to the replica), echoes it on
// the response, and emits one access-log line. Heartbeats are logged at
// Debug — they arrive every couple of seconds per replica and would bury
// real events at Info. With logging off (the NopLogger default) nothing is
// formatted.
func (rt *Router) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(server.RequestIDHeader)
		if id == "" {
			id = "r" + strconv.FormatUint(routerReqSeq.Add(1), 10)
			r.Header.Set(server.RequestIDHeader, id)
		}
		w.Header().Set(server.RequestIDHeader, id)
		sw := &routerStatusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		level := slog.LevelInfo
		if strings.HasSuffix(r.URL.Path, "/heartbeat") {
			level = slog.LevelDebug
		}
		if logger := rt.log(); logger.Enabled(r.Context(), level) {
			logger.Log(r.Context(), level, "http request",
				"request_id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"duration_ms", float64(time.Since(start).Microseconds())/1000)
		}
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

// RoutedCreateResponse is the replica's create response plus where the
// session landed.
type RoutedCreateResponse struct {
	server.CreateResponse
	Replica string `json:"replica"`
}

func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req server.CreateRequest
	if !server.DecodeBody(w, r, rt.cfg.MaxBodyBytes, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := PlacementKey(req.FIRRTL, req.SessionSpec)

	// Placement with retry: the chosen replica can refuse (it began draining
	// or hit its session cap between our lookup and the create). Each refusal
	// excludes that replica and re-resolves the ring.
	exclude := make(map[string]bool)
	var lastErr error
	for attempt := 0; attempt <= rt.cfg.MigrationRetries; attempt++ {
		rep, ok := rt.pickReplica(key, exclude)
		if !ok {
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("fleet: no ready replica for placement (last error: %v)", lastErr))
			return
		}
		resp, err := rt.clientForReq(rep, r).create(req)
		if err != nil {
			lastErr = err
			if retryableStatus(err) {
				exclude[rep.Name] = true
				continue
			}
			// Hard replica error: surface it with the replica's own status.
			var se *statusError
			if errors.As(err, &se) {
				writeJSON(w, se.status, map[string]string{"error": se.msg, "replica": rep.Name})
				return
			}
			writeError(w, http.StatusBadGateway, fmt.Errorf("replica %s: %v", rep.Name, err))
			return
		}

		sourceKey := rt.store.PutPinned([]byte(req.FIRRTL))
		rt.mu.Lock()
		rt.nextID++
		fs := &fleetSession{
			id:         "f" + strconv.FormatUint(rt.nextID, 10),
			placeKey:   key,
			sourceKey:  sourceKey,
			spec:       req.SessionSpec,
			replica:    rep.Name,
			base:       rep.base,
			backendID:  resp.Session,
			designHash: resp.DesignHash,
		}
		rt.sessions[fs.id] = fs
		rt.mu.Unlock()

		out := RoutedCreateResponse{CreateResponse: resp, Replica: rep.Name}
		out.Session = fs.id
		writeJSON(w, http.StatusCreated, out)
		return
	}
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("fleet: placement failed after %d attempts: %v", rt.cfg.MigrationRetries+1, lastErr))
}

// proxySession forwards a session-scoped request to the session's current
// home, rewriting the public session ID to the backend one. The shared gate
// hold spans the whole round trip: a concurrent migration waits for it, and
// once migration holds the gate this request's successor lands on the new
// home transparently. The session carries its home's URL, so rt.mu is taken
// once, for the table lookup.
func (rt *Router) proxySession(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	fs, ok := rt.sessions[r.PathValue("id")]
	rt.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("fleet: no session %s", r.PathValue("id")))
		return
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		writeError(w, http.StatusNotFound, fmt.Errorf("fleet: session %s is closed", fs.id))
		return
	}
	rt.forward(w, r, fs)
}

// forward relays r to fs's home (the caller holds fs's gate) with the {id}
// path segment replaced by the backend ID, streaming the body both ways and
// copying status and headers verbatim — a replica's redirect included: the
// router adds no semantics of its own beyond 502 when the replica is
// unreachable. It is a reverse-proxy hop on the configured client's
// transport (one connection pool for proxied and control traffic alike), not
// a Client.Do: no redirect following, no per-call header clone, and the
// inbound Content-Length goes out as is, so the replica reads a sized body
// instead of a chunked one.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, fs *fleetSession) {
	u := *fs.base
	u.Path, u.RawPath = u.Path+"/v1/sessions/"+fs.backendID, ""
	if rest := pathSuffix(r.URL.Path); rest != "" {
		u.Path += "/" + rest
	}
	u.RawQuery = r.URL.RawQuery
	// The client's Timeout bounds the round trip, body included, unless the
	// inbound request already carries a deadline of its own.
	ctx := r.Context()
	if _, ok := ctx.Deadline(); !ok && rt.cfg.HTTPClient.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.cfg.HTTPClient.Timeout)
		defer cancel()
	}
	// The correlation ID follows the request onto the replica, so one ID
	// stitches the router and replica access logs together.
	out := (&http.Request{
		Method: r.Method,
		URL:    &u,
		Header: http.Header{
			"Content-Type":         r.Header["Content-Type"],
			server.RequestIDHeader: r.Header[server.RequestIDHeader],
		},
		Body:          r.Body,
		ContentLength: r.ContentLength,
	}).WithContext(ctx)
	if user := u.User; user != nil { // as Client.Do would
		pw, _ := user.Password()
		out.SetBasicAuth(user.Username(), pw)
	}
	transport := rt.cfg.HTTPClient.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	start := time.Now()
	resp, err := transport.RoundTrip(out)
	if rm := rt.Metrics(); rm != nil {
		rm.ProxyLatency.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("replica %s: %v", fs.replica, err))
		return
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// pathSuffix extracts the trailing segment after /v1/sessions/{id}/ ("ops",
// "vcd", ...); empty for the bare session path.
func pathSuffix(p string) string {
	const prefix = "/v1/sessions/"
	rest := p[len(prefix):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			return rest[i+1:]
		}
	}
	return ""
}

func (rt *Router) handleClose(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	fs, ok := rt.sessions[r.PathValue("id")]
	rt.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("fleet: no session %s", r.PathValue("id")))
		return
	}
	fs.mu.Lock()
	already := fs.closed
	fs.closed = true
	rep, repOK := rt.replicaByName(fs.replica)
	backendID := fs.backendID
	fs.mu.Unlock()
	if !already {
		rt.mu.Lock()
		delete(rt.sessions, fs.id)
		rt.mu.Unlock()
		rt.store.Unpin(fs.sourceKey)
		if repOK {
			// Best-effort: a dead home means the backend session died with it.
			_ = rt.clientForReq(rep, r).deleteSession(backendID)
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"closed": fs.id})
}

// RoutedSessionInfo is one GET /v1/sessions entry: the replica's view plus
// routing metadata.
type RoutedSessionInfo struct {
	server.SessionInfo
	Replica string `json:"replica"`
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	all := rt.tableLocked()
	rt.mu.Unlock()
	sortByID(all)

	// One list fetch per distinct home, then join on backend ID.
	byReplica := make(map[string]map[string]server.SessionInfo)
	infos := make([]RoutedSessionInfo, 0, len(all))
	for _, fs := range all {
		fs.mu.RLock()
		home, backendID, closed := fs.replica, fs.backendID, fs.closed
		fs.mu.RUnlock()
		if closed {
			continue
		}
		backends, fetched := byReplica[home]
		if !fetched {
			backends = make(map[string]server.SessionInfo)
			if rep, ok := rt.replicaByName(home); ok {
				if list, err := func() ([]server.SessionInfo, error) {
					var l []server.SessionInfo
					err := rt.clientFor(rep).getJSON("/v1/sessions", &l)
					return l, err
				}(); err == nil {
					for _, si := range list {
						backends[si.Session] = si
					}
				}
			}
			byReplica[home] = backends
		}
		si, ok := backends[backendID]
		if !ok {
			continue // mid-migration or backend lost; skip rather than lie
		}
		si.Session = fs.id
		infos = append(infos, RoutedSessionInfo{SessionInfo: si, Replica: home})
	}
	writeJSON(w, http.StatusOK, infos)
}

// FleetStats is the GET /v1/stats body: aggregate counters plus per-replica
// breakdown and router-level migration accounting.
type FleetStats struct {
	Sessions        int                             `json:"sessions"`
	Replicas        int                             `json:"replicas"`
	ReadyReplicas   int                             `json:"ready_replicas"`
	Migrated        uint64                          `json:"migrated"`
	MigrationsFail  uint64                          `json:"migrations_failed"`
	SessionsLost    uint64                          `json:"sessions_lost"`
	StoreBytes      int64                           `json:"store_bytes"`
	StoreBlobs      int                             `json:"store_blobs"`
	StoreEvictions  uint64                          `json:"store_evictions"`
	PerReplica      map[string]server.StatsResponse `json:"per_replica,omitempty"`
	UnreachableReps []string                        `json:"unreachable,omitempty"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	sessions := len(rt.sessions)
	reps := make([]Replica, 0, len(rt.replicas))
	ready := 0
	for _, rep := range rt.replicas {
		reps = append(reps, *rep)
		if rep.State == StateReady {
			ready++
		}
	}
	rt.mu.Unlock()

	used, _, blobs, evictions := rt.store.Stats()
	out := FleetStats{
		Sessions:       sessions,
		Replicas:       len(reps),
		ReadyReplicas:  ready,
		Migrated:       rt.migrated.Load(),
		MigrationsFail: rt.migrateFail.Load(),
		SessionsLost:   rt.lost.Load(),
		StoreBytes:     used,
		StoreBlobs:     blobs,
		StoreEvictions: evictions,
		PerReplica:     make(map[string]server.StatsResponse, len(reps)),
	}
	for _, rep := range reps {
		if rep.State == StateDead {
			continue
		}
		stats, err := rt.clientFor(rep).stats()
		if err != nil {
			out.UnreachableReps = append(out.UnreachableReps, rep.Name)
			continue
		}
		out.PerReplica[rep.Name] = stats
	}
	sort.Strings(out.UnreachableReps)
	writeJSON(w, http.StatusOK, out)
}

// handleReadyz: the router is ready when at least one replica can take
// placements.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	ready := 0
	for _, rep := range rt.replicas {
		if rep.State == StateReady {
			ready++
		}
	}
	rt.mu.Unlock()
	if ready == 0 {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no ready replicas"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "replicas": ready})
}

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !server.DecodeBody(w, r, rt.cfg.MaxBodyBytes, &req) {
		return
	}
	if req.Name == "" || req.URL == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("name and url required"))
		return
	}
	rt.Register(req.Name, req.URL)
	writeJSON(w, http.StatusOK, map[string]string{"registered": req.Name})
}

func (rt *Router) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	err := rt.heartbeatLocked(r.PathValue("name"), time.Now())
	rt.mu.Unlock()
	if err != nil {
		// Unknown name: the router restarted and lost the registry, or the
		// replica was expired. 404 tells the agent to re-register.
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (rt *Router) handleDrainReplica(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	migrated, failed, err := rt.DrainReplica(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"replica":  name,
		"migrated": migrated,
		"failed":   failed,
	})
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	table := rt.tableLocked()
	infos := make([]ReplicaInfo, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		infos = append(infos, ReplicaInfo{Name: rep.Name, URL: rep.URL, State: rep.State.String()})
	}
	rt.mu.Unlock()
	// Session homes are read under their gates, after rt.mu is released
	// (see homedOn); a session mid-migration is counted once it has landed.
	perReplica := make(map[string]int)
	for _, fs := range table {
		fs.mu.RLock()
		if !fs.closed {
			perReplica[fs.replica]++
		}
		fs.mu.RUnlock()
	}
	for i := range infos {
		infos[i].Sessions = perReplica[infos[i].Name]
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"replicas": infos})
}

// probeLoop is the background health checker: expire stale heartbeats, probe
// ready replicas' /readyz, and drain-or-declare-dead the ones that fail.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.CheckHealth(time.Now())
		}
	}
}

// CheckHealth runs one health pass synchronously: heartbeat expiry, then a
// /readyz probe of every ready replica. A replica answering 503 (it began
// draining on its own, e.g. SIGTERM before the agent's notification arrived)
// or failing ProbeFailThreshold consecutive probes is drained: its sessions
// migrate to the ring minus it. An unreachable replica's sessions cannot be
// snapshotted; they are dropped (counted in SessionsLost) — the documented
// cost of a crash, as opposed to a drain.
func (rt *Router) CheckHealth(now time.Time) {
	rt.mu.Lock()
	expired := rt.expireReplicasLocked(now)
	var probeTargets []Replica
	for _, rep := range rt.replicas {
		if rep.State == StateReady {
			probeTargets = append(probeTargets, *rep)
		}
	}
	rt.mu.Unlock()

	for _, rep := range expired {
		rt.reapDeadReplica(rep.Name)
	}

	for _, rep := range probeTargets {
		if rt.clientFor(rep).ready() {
			rt.mu.Lock()
			if live, ok := rt.replicas[rep.Name]; ok {
				live.probeFail = 0
			}
			rt.mu.Unlock()
			continue
		}
		rt.mu.Lock()
		live, ok := rt.replicas[rep.Name]
		if !ok || live.State != StateReady {
			rt.mu.Unlock()
			continue
		}
		live.probeFail++
		failed := live.probeFail >= rt.cfg.ProbeFailThreshold
		rt.mu.Unlock()
		if failed {
			// Try a graceful drain first — the replica may be refusing new
			// work but still serving (self-initiated drain). Sessions that
			// cannot be moved are lost.
			_, _, _ = rt.DrainReplica(rep.Name)
			rt.reapDeadReplica(rep.Name)
		}
	}
}

// reapDeadReplica marks name dead and drops the sessions still homed there
// whose state died with the process.
func (rt *Router) reapDeadReplica(name string) {
	rt.mu.Lock()
	rep, ok := rt.replicas[name]
	died := ok && rep.State != StateDead
	if died {
		rep.State = StateDead
		rt.rebuildRingLocked()
	}
	table := rt.tableLocked()
	rt.mu.Unlock()
	orphans := homedOn(table, name)
	if died {
		rt.log().Warn("replica dead", "replica", name, "orphans", len(orphans))
	}
	for _, fs := range orphans {
		rt.dropSession(fs, "home replica died")
	}
}
