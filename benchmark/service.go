package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"gsim/internal/bitvec"
	"gsim/internal/core"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/fleet"
	"gsim/internal/ir"
	"gsim/internal/obs"
	"gsim/internal/server"
	"gsim/internal/snapshot"
)

// serviceClients is the closed loop's width: one generator process, two
// client goroutines, one session each. Clients and service share one vCPU
// (confineProcess), so a request's latency is about two service times.
const serviceClients = 2

// topology is the service under test, in process: one instrumented manager
// behind an HTTP listener, or a router fronting two such replicas over
// loopback HTTP. Both are configured the way cmd/gsim-serve and
// cmd/gsim-router configure them by default.
type topology struct {
	base      string // URL clients talk to
	managers  map[string]*server.Manager
	servers   []*httptest.Server
	router    *fleet.Router
	transport *http.Transport // the clients'
	hop       *http.Transport // the router's, to the replicas
}

func newTopology(routed bool) *topology {
	t := &topology{managers: map[string]*server.Manager{}, transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}}
	replica := func(name string) string {
		mgr := server.NewManager()
		mgr.InitObs(obs.NewRegistry())
		ts := httptest.NewServer(mgr.Handler())
		t.managers[name] = mgr
		t.servers = append(t.servers, ts)
		return ts.URL
	}
	if !routed {
		t.base = replica("direct")
		return t
	}
	t.hop = http.DefaultTransport.(*http.Transport).Clone()
	t.router = fleet.NewRouter(fleet.Config{HTTPClient: &http.Client{Transport: t.hop, Timeout: 5 * time.Minute}})
	t.router.InitObs(obs.NewRegistry())
	for _, name := range []string{"a", "b"} {
		t.router.Register(name, replica(name))
	}
	front := httptest.NewServer(t.router.Handler())
	t.servers = append(t.servers, front)
	t.base = front.URL
	return t
}

// close stops every listener and goroutine the topology started and waits
// for them.
func (t *topology) close() {
	t.transport.CloseIdleConnections()
	if t.hop != nil {
		t.hop.CloseIdleConnections()
	}
	for i := len(t.servers) - 1; i >= 0; i-- {
		t.servers[i].Close()
	}
	for _, m := range t.managers {
		_ = m.Drain(context.Background()) // only closes sessions; nothing to report
	}
	if t.router != nil {
		t.router.Close()
	}
}

// home names the replica that holds the sessions (design affinity puts all
// sessions of one design on one replica).
func (t *topology) home() string {
	for name, m := range t.managers {
		if m.SessionCount() > 0 {
			return name
		}
	}
	return ""
}

// api issues HTTP requests and counts them. Every request is an attempted
// op; a transport error or a non-2xx status is a failed one. One api belongs
// to one goroutine.
type api struct {
	http              *http.Client
	attempted, failed int
	buf               bytes.Buffer
}

func (t *topology) newAPI() *api { return &api{http: &http.Client{Transport: t.transport}} }

// call returns the response body, valid until the next call, and whether the
// op succeeded.
func (a *api) call(method, url string, body []byte) ([]byte, bool) {
	a.attempted++
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		if resp, err = a.http.Do(req); err == nil {
			a.buf.Reset()
			_, err = io.Copy(&a.buf, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode/100 == 2 {
				return a.buf.Bytes(), true
			}
		}
	}
	a.failed++
	return nil, false
}

// callJSON is call with a decoded reply.
func (a *api) callJSON(method, url string, body []byte, out any) bool {
	data, ok := a.call(method, url, body)
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, out); err != nil {
		a.failed++
		return false
	}
	return true
}

// request is one client-visible op, generated ahead of the timed region with
// the answer the in-process twin gave to it.
type request struct {
	poke   bool // false: the one-in-ten peek-only request
	lo, hi uint64
	ops    []server.Op
	body   []byte // ops, JSON-encoded
	expect string // the twin's output port after the op
	got    string
	reply  []byte // raw HTTP reply, decoded after the timed region
}

// sessionClient is one closed-loop client: it owns one session and sends it
// requests generated from its own seeded stream — {poke stim, step 16, peek},
// with exactly one request in ten peek-only. An in-process twin (core.Build
// of the same design, no server) applies the same ops while the requests are
// generated, so every reply can be checked and the run's digest has an
// expected value.
type sessionClient struct {
	api        *api
	sessionURL string // .../v1/sessions/{id}
	opsURL     string // sessionURL + "/ops"
	stim       *stimulus
	phase      int // the request index mod 10 that is peek-only
	issued     int
	reqs       []request

	twin               *core.System
	twinStim, twinOut  int
	expected, observed hash.Hash
	mismatches         int
}

func newSessionClient(g *ir.Graph, sc scale, seed int64, index int) (*sessionClient, error) {
	twin, err := core.Build(g, core.GSIM())
	if err != nil {
		return nil, err
	}
	stimID, outID, err := ports(twin.Graph)
	if err != nil {
		return nil, err
	}
	clientSeed := seed*serviceClients + int64(index)
	return &sessionClient{
		stim: newStimulus(stimBoot, sc.serviceDesign, clientSeed), phase: int(uint64(clientSeed) % 10),
		twin: twin, twinStim: stimID, twinOut: outID,
		expected: sha256.New(), observed: sha256.New(),
	}, nil
}

// prepare generates the next n requests (bodies encoded here, outside every
// timer) and returns how many cycles they step.
func (c *sessionClient) prepare(n int) (cycles int) {
	c.reqs = make([]request, n)
	for i := range c.reqs {
		q := &c.reqs[i]
		if q.poke = c.issued%10 != c.phase; q.poke {
			q.lo, q.hi = c.stim.next()
			q.ops = append(q.ops,
				server.Op{Op: "poke", Name: stimPort, Value: stimLiteral(q.lo, q.hi)},
				server.Op{Op: "step", N: opCycles})
			stepDirect(c.twin.Sim, c.twinStim, q)
			cycles += opCycles
		}
		q.ops = append(q.ops, server.Op{Op: "peek", Name: outPort})
		body, err := json.Marshal(server.OpsRequest{Ops: q.ops})
		if err != nil {
			panic(err) // plain strings and ints cannot fail to encode
		}
		q.body = body
		q.expect = c.twin.Sim.Peek(c.twinOut).String()
		c.issued++
	}
	return cycles
}

// stepDirect applies a request's poke and steps to an engine, no server.
func stepDirect(sim engine.Sim, stimID int, q *request) {
	if q.poke {
		sim.Poke(stimID, bitvec.BV{Width: 128, W: []uint64{q.lo, q.hi}})
		engine.StepN(sim, opCycles)
	}
}

// sendHTTP posts the request to the client's session.
func (c *sessionClient) sendHTTP(q *request) bool {
	reply, ok := c.api.call(http.MethodPost, c.opsURL, q.body)
	q.reply = append([]byte(nil), reply...)
	return ok
}

// run sends the prepared requests back to back through send. A failed
// request stays in the latency sample as +Inf. rec, when non-nil, gets one
// span per request (single-client runs only: the recorder is not shared).
func (c *sessionClient) run(send func(*request) bool, lat []float64, rec *spanRecorder, spanName string) {
	first := c.issued - len(c.reqs)
	for i := range c.reqs {
		sp := rec.begin(spanName, first+i, -1)
		t0 := time.Now()
		ok := send(&c.reqs[i])
		d := time.Since(t0).Seconds()
		rec.end(sp)
		if !ok {
			d = math.Inf(1)
		}
		if lat != nil {
			lat[i] = d
		}
	}
}

// verify checks the answers of the last run against the twin and extends
// both digests.
func (c *sessionClient) verify() {
	for i := range c.reqs {
		q := &c.reqs[i]
		if q.reply != nil {
			var out server.OpsResponse
			if json.Unmarshal(q.reply, &out) == nil && len(out.Results) > 0 {
				q.got = out.Results[len(out.Results)-1].Value
			}
		}
		io.WriteString(c.expected, q.expect)
		io.WriteString(c.observed, q.got)
		if q.got != q.expect {
			c.mismatches++
		}
	}
}

// finish folds the session's final snapshot — state image and engine stats —
// into the digests, next to the twin's own.
func (c *sessionClient) finish() error {
	want, err := snapshot.Save(c.twin.Sim)
	if err != nil {
		return err
	}
	c.expected.Write(want)
	var snap server.SnapshotResponse
	if c.api.callJSON(http.MethodPost, c.sessionURL+"/snapshot", nil, &snap) {
		got, err := base64.StdEncoding.DecodeString(snap.Snapshot)
		if err != nil {
			return err
		}
		c.observed.Write(got)
	}
	return nil
}

// runClients runs each client's prepared requests on its own goroutine and
// returns the wall time until the last one finished.
func runClients(cs []*sessionClient, lats [][]float64) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			if lats != nil {
				lat = lats[i]
			}
			c.run(c.sendHTTP, lat, nil, "")
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// service is a topology with its clients attached.
type service struct {
	topo       *topology
	admin      *api // the main goroutine's requests: creates, snapshots, deletes
	clients    []*sessionClient
	createBody []byte
}

// openService stands the topology up and opens one session per client.
func openService(routed bool, createBody []byte, clients []*sessionClient) (*service, error) {
	s := &service{topo: newTopology(routed), clients: clients, createBody: createBody}
	s.admin = s.topo.newAPI()
	for _, c := range clients {
		id, ok := s.create()
		if !ok {
			s.topo.close()
			return nil, fmt.Errorf("create session failed")
		}
		c.api = s.topo.newAPI()
		c.sessionURL = s.topo.base + "/v1/sessions/" + id
		c.opsURL = c.sessionURL + "/ops"
	}
	return s, nil
}

func (s *service) create() (string, bool) {
	var resp server.CreateResponse
	ok := s.admin.callJSON(http.MethodPost, s.topo.base+"/v1/sessions", s.createBody, &resp)
	return resp.Session, ok
}

func (s *service) delete(id string) {
	s.admin.call(http.MethodDelete, s.topo.base+"/v1/sessions/"+id, nil) // a failure is counted by the api
}

func (s *service) counts() (attempted, failed int) {
	attempted, failed = s.admin.attempted, s.admin.failed
	for _, c := range s.clients {
		attempted += c.api.attempted
		failed += c.api.failed
	}
	return attempted, failed
}

// segment prepares n requests per client, runs them, verifies the replies,
// and returns the wall time, the cycles stepped and every request's latency
// in seconds.
func (s *service) segment(n int) (wall time.Duration, cycles int, lat []float64) {
	lats := make([][]float64, len(s.clients))
	for i, c := range s.clients {
		cycles += c.prepare(n)
		lats[i] = make([]float64, n)
	}
	runtime.GC()
	wall = runClients(s.clients, lats)
	for i, c := range s.clients {
		c.verify()
		lat = append(lat, lats[i]...)
	}
	return wall, cycles, lat
}

// saveRestore snapshots a session and restores the image into the same
// session.
func (s *service) saveRestore(sessionURL string) (image string, ok bool) {
	var snap server.SnapshotResponse
	if !s.admin.callJSON(http.MethodPost, sessionURL+"/snapshot", nil, &snap) {
		return "", false
	}
	body, _ := json.Marshal(server.RestoreRequest{Snapshot: snap.Snapshot}) // a string field cannot fail to encode
	_, ok = s.admin.call(http.MethodPost, sessionURL+"/restore", body)
	return snap.Snapshot, ok
}

// unchangedBy reports whether the session's state still equals image.
func (s *service) unchangedBy(sessionURL, image string) bool {
	var again server.SnapshotResponse
	s.admin.callJSON(http.MethodPost, sessionURL+"/snapshot", nil, &again)
	return image != "" && image == again.Snapshot
}

// migrate drains the replica the sessions live on: the router snapshots each
// session, recreates it on the other replica, restores and reroutes it.
func (s *service) migrate(r *report) time.Duration {
	t0 := time.Now()
	moved, failed, err := s.topo.router.DrainReplica(s.topo.home())
	d := time.Since(t0)
	if err != nil || moved != len(s.clients) || len(failed) != 0 {
		r.problem("drain: moved %d of %d sessions, failed %v, err %v", moved, len(s.clients), failed, err)
	}
	return d
}

// sessionsLost asks the router how many sessions it dropped.
func (s *service) sessionsLost() (uint64, bool) {
	var st fleet.FleetStats
	ok := s.admin.callJSON(http.MethodGet, s.topo.base+"/v1/stats", nil, &st)
	return st.SessionsLost, ok
}

// runServiceWorkload runs sc.rounds identical rounds, like the engine
// workloads: a cold set-up (listeners up, one session per client — the first
// create compiles, the second hits the cache — and warm-up traffic) and the
// measured segments. On fleet-routed every round ends with a live migration
// of both sessions and one more segment of the same traffic. Clients and
// twins restart from the same seeds each round, so every round must end in
// the same digest.
func runServiceWorkload(w workload, sc scale, seed int64, r *report) error {
	text, err := designText(sc.serviceDesign)
	if err != nil {
		return err
	}
	graph, err := firrtl.Load(text)
	if err != nil {
		return err
	}
	createBody, err := json.Marshal(server.CreateRequest{FIRRTL: text})
	if err != nil {
		return err
	}
	ld := w.load(sc)
	defer confineProcess()() // one vCPU for clients and service alike: see pin_linux.go
	retire := func(s *service) {
		a, f := s.counts()
		r.attempted, r.failed = r.attempted+a, r.failed+f
		s.topo.close()
		for _, c := range s.clients {
			c.twin.Close()
		}
	}

	var m samples
	var postKHz, postP50 []float64 // the fleet-routed segment after each live migration
	var svc *service
	for round := 0; round < sc.rounds; round++ {
		if svc != nil {
			retire(svc)
		}
		clients := make([]*sessionClient, serviceClients)
		for i := range clients {
			if clients[i], err = newSessionClient(graph, sc, seed, i); err != nil {
				return err
			}
		}
		// The warm-up's requests are generated (twins stepped, bodies encoded)
		// before the clock starts and checked after it stops: setup_s times
		// the service, not this harness.
		for _, c := range clients {
			c.prepare(ld.warm(10))
		}
		runtime.GC()
		t0 := time.Now()
		if svc, err = openService(w.routed, createBody, clients); err != nil {
			return err
		}
		runClients(clients, nil)
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		for _, c := range clients {
			c.verify()
		}

		for s := 0; s < ld.segs; s++ {
			m.spinS = append(m.spinS, spin().Seconds())
			wall, cycles, lat := svc.segment(ld.size)
			m.khz = append(m.khz, float64(cycles)/wall.Seconds()/1000)
			m.lats = append(m.lats, lat)
		}
		if image, ok := svc.saveRestore(svc.clients[0].sessionURL); !ok || !svc.unchangedBy(svc.clients[0].sessionURL, image) {
			r.problem("round %d: a snapshot round trip over HTTP changed the state", round)
		}
		if w.routed {
			svc.migrate(r)
			wall, cycles, lat := svc.segment(ld.size)
			postKHz = append(postKHz, float64(cycles)/wall.Seconds()/1000)
			postP50 = append(postP50, percentile(lat, 50)*1000)
			if lost, ok := svc.sessionsLost(); !ok || lost != 0 {
				r.problem("round %d: router lost %d sessions", round, lost)
			}
		}

		// The correctness gate, outside every metric.
		observed, expected := sha256.New(), sha256.New()
		for i, c := range svc.clients {
			if err := c.finish(); err != nil {
				return err
			}
			if c.mismatches > 0 {
				r.problem("round %d client %d: %d of %d replies differ from the in-process twin", round, i, c.mismatches, c.issued)
			}
			observed.Write(c.observed.Sum(nil))
			expected.Write(c.expected.Sum(nil))
			r.Counts[fmt.Sprintf("client%d_requests_per_round", i)] = uint64(c.issued)
			r.Counts[fmt.Sprintf("client%d_cycles_per_round", i)] = c.twin.Sim.Stats().Cycles
		}
		digest := fmt.Sprintf("%x", observed.Sum(nil))
		if want := fmt.Sprintf("%x", expected.Sum(nil)); digest != want {
			r.problem("round %d: digest %s, in-process twins expect %s", round, digest, want)
		}
		if round == 0 {
			r.Digest = digest
		} else if digest != r.Digest {
			r.problem("round %d ended in digest %s, round 0 in %s", round, digest, r.Digest)
		}
	}
	m.report(r) // live heap: the last round's sessions are still open
	if w.routed {
		// Not gated: the same traffic on the replica the sessions migrated to.
		r.PostMigrate = &postMigrate{KHz: fastRate(postKHz) / r.HostSpeed, OpP50MS: fastTime(postP50) * r.HostSpeed}
	}
	retire(svc)
	return nil
}
