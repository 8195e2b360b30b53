package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsim/internal/leakcheck"
	"gsim/internal/server"
)

// stubReplica registers one fake replica with a fresh router: it accepts the
// create (the router never compiles, so any source will do) and hands every
// session-scoped request to h, so a test controls exactly what the proxy hop
// sees and returns. It reports the router's URL and the routed session ID.
func stubReplica(t *testing.T, cfg Config, h http.HandlerFunc) (routerURL, sid string) {
	t.Helper()
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions" {
			w.WriteHeader(http.StatusCreated)
			io.WriteString(w, `{"session":"b1","design_hash":"h"}`)
			return
		}
		// A real replica echoes the correlation ID; so does the stub.
		w.Header().Set(server.RequestIDHeader, r.Header.Get(server.RequestIDHeader))
		h(w, r)
	}))
	rt := NewRouter(cfg)
	rt.Register("stub", rep.URL)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		front.Close()
		rt.Close()
		rep.Close()
	})
	var created RoutedCreateResponse
	if status := doJSON(t, "POST", front.URL+"/v1/sessions", server.CreateRequest{FIRRTL: "circuit x :"}, &created); status != http.StatusCreated {
		t.Fatalf("create on stub: status %d", status)
	}
	return front.URL, created.Session
}

// TestProxyRedirectVerbatim: the hop is a proxy, not a client — a replica's
// 3xx goes back to the caller as it is and the router does not chase it.
func TestProxyRedirectVerbatim(t *testing.T) {
	var chased atomic.Bool
	base, sid := stubReplica(t, Config{}, func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/ops") {
			chased.Store(true)
			return
		}
		w.Header().Set("Location", "/v1/sessions/b1/lanes")
		w.WriteHeader(http.StatusFound)
		io.WriteString(w, "moved")
	})
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noFollow.Post(base+"/v1/sessions/"+sid+"/ops", "application/json", strings.NewReader(`{"ops":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusFound || resp.Header.Get("Location") != "/v1/sessions/b1/lanes" || string(body) != "moved" {
		t.Fatalf("redirect not relayed verbatim: status %d, Location %q, body %q", resp.StatusCode, resp.Header.Get("Location"), body)
	}
	if chased.Load() {
		t.Fatal("router followed the replica's redirect")
	}
}

// TestProxyTimeout: the configured client's Timeout still bounds a proxied
// round trip now that the hop drives the transport itself.
func TestProxyTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // lets the stub's handler return so its server can close
	cfg := Config{HTTPClient: &http.Client{Timeout: 50 * time.Millisecond}}
	base, sid := stubReplica(t, cfg, func(w http.ResponseWriter, r *http.Request) { <-release })
	start := time.Now()
	if status := doJSON(t, "POST", base+"/v1/sessions/"+sid+"/ops", server.OpsRequest{}, nil); status != http.StatusBadGateway {
		t.Fatalf("stalled replica: status %d, want 502", status)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("stalled replica answered after %v, Timeout is 50ms", d)
	}
}

// TestProxyLargeBodiesStream: bodies far past any pooled-buffer size cross
// the hop intact in both directions — a chunked response without a length
// and a multi-MiB request body — with the correlation ID echoed.
func TestProxyLargeBodiesStream(t *testing.T) {
	waveform := bytes.Repeat([]byte("#1234\nb10110 !\n"), 200<<10/15) // ~200 KiB
	base, sid := stubReplica(t, Config{}, func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/vcd"):
			// Flushed piecewise: the response has no Content-Length.
			for off := 0; off < len(waveform); off += 10_000 {
				w.Write(waveform[off:min(off+10_000, len(waveform))])
				w.(http.Flusher).Flush()
			}
		case strings.HasSuffix(r.URL.Path, "/restore"):
			sum := sha256.New()
			n, _ := io.Copy(sum, r.Body)
			io.WriteString(w, strconv.FormatInt(n, 10)+" "+hex.EncodeToString(sum.Sum(nil)))
		}
	})

	req, _ := http.NewRequest("GET", base+"/v1/sessions/"+sid+"/vcd?lane=0", nil)
	req.Header.Set(server.RequestIDHeader, "big-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(got, waveform) {
		t.Fatalf("vcd through the router: %d bytes (err %v), want %d identical bytes", len(got), err, len(waveform))
	}
	if resp.ContentLength != -1 {
		t.Errorf("vcd response was not streamed: Content-Length %d", resp.ContentLength)
	}
	if ids := resp.Header.Values(server.RequestIDHeader); len(ids) != 1 || ids[0] != "big-1" {
		t.Errorf("vcd response request IDs = %q, want exactly big-1", ids)
	}

	blob := bytes.Repeat([]byte("0123456789abcdef"), 3<<20/16) // 3 MiB
	want := sha256.Sum256(blob)
	for _, sized := range []bool{true, false} {
		var body io.Reader = bytes.NewReader(blob)
		if !sized {
			body = io.MultiReader(body) // hides the length: sent chunked
		}
		req, _ := http.NewRequest("POST", base+"/v1/sessions/"+sid+"/restore", body)
		req.Header.Set(server.RequestIDHeader, "big-2")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if wantReply := strconv.Itoa(len(blob)) + " " + hex.EncodeToString(want[:]); string(got) != wantReply {
			t.Errorf("restore body (sized=%v) arrived as %q, want %q", sized, got, wantReply)
		}
		if id := resp.Header.Get(server.RequestIDHeader); id != "big-2" {
			t.Errorf("restore response request ID = %q, want big-2", id)
		}
	}
}

// TestProxyForwardsContentLength: a sized request stays sized across the
// hop, so the replica reads its body without a chunked decoder.
func TestProxyForwardsContentLength(t *testing.T) {
	const body = `{"ops":[{"op":"peek","name":"out"}]}`
	var mu sync.Mutex
	var length int64
	var encoding []string
	var arrived string
	base, sid := stubReplica(t, Config{}, func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		mu.Lock()
		length, encoding, arrived = r.ContentLength, r.TransferEncoding, string(data)
		mu.Unlock()
		io.WriteString(w, `{"results":[]}`)
	})
	if status := doJSON(t, "POST", base+"/v1/sessions/"+sid+"/ops", server.OpsRequest{Ops: []server.Op{{Op: "peek", Name: "out"}}}, nil); status != http.StatusOK {
		t.Fatalf("ops: status %d", status)
	}
	mu.Lock()
	defer mu.Unlock()
	// doJSON encodes with a trailing newline.
	if arrived != body+"\n" || length != int64(len(body)+1) || len(encoding) != 0 {
		t.Fatalf("replica saw body %q, Content-Length %d, Transfer-Encoding %v; want the %d-byte body sized and not chunked",
			arrived, length, encoding, len(body)+1)
	}
}

// pausedFleet is a two-replica fleet ("r1", "r2") whose replicas can hold one
// snapshot request: once pause is set, the next /snapshot closes inSnapshot
// and is served only after release closes. A migration paused there holds its
// session's gate. opsSeen counts the ops requests each replica received.
type pausedFleet struct {
	rt                  *Router
	front               *httptest.Server
	pause               atomic.Bool
	inSnapshot, release chan struct{}
	opsSeen             map[string]*atomic.Int64
}

func newPausedFleet(t *testing.T) *pausedFleet {
	pf := &pausedFleet{
		rt:         NewRouter(Config{RetryBackoff: time.Millisecond}),
		inSnapshot: make(chan struct{}),
		release:    make(chan struct{}),
		opsSeen:    map[string]*atomic.Int64{},
	}
	for _, name := range []string{"r1", "r2"} {
		mgr := server.NewManager()
		inner, seen := mgr.Handler(), new(atomic.Int64)
		pf.opsSeen[name] = seen
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case strings.HasSuffix(r.URL.Path, "/ops"):
				seen.Add(1)
			case strings.HasSuffix(r.URL.Path, "/snapshot") && pf.pause.CompareAndSwap(true, false):
				close(pf.inSnapshot)
				<-pf.release
			}
			inner.ServeHTTP(w, r)
		}))
		pf.rt.Register(name, ts.URL)
		t.Cleanup(func() {
			_ = mgr.Drain(context.Background())
			ts.Close()
		})
	}
	pf.front = httptest.NewServer(pf.rt.Handler())
	t.Cleanup(func() {
		pf.front.Close()
		pf.rt.Close()
	})
	return pf
}

// drain starts DrainReplica(name) and reports its outcome on the channel.
func (pf *pausedFleet) drain(name string) <-chan error {
	drained := make(chan error, 1)
	go func() {
		_, failed, err := pf.rt.DrainReplica(name)
		if err == nil && len(failed) != 0 {
			err = fmt.Errorf("sessions %v did not move", failed)
		}
		drained <- err
	}()
	return drained
}

// TestMigrationGateBlocksProxiedOp: while a migration holds the session's
// gate (paused here inside its snapshot of the old home), a proxied op does
// not reach the old home; it waits, and lands on the new one.
func TestMigrationGateBlocksProxiedOp(t *testing.T) {
	pf := newPausedFleet(t)
	front, release := pf.front, pf.release
	s, created := createSession(t, front.URL, readDesign(t, "counter.fir"), server.SessionSpec{})
	s.ops(server.Op{Op: "poke", Name: "en", Value: "1"}, server.Op{Op: "step", N: 5})
	oldHome := created.Replica
	before := pf.opsSeen[oldHome].Load()

	pf.pause.Store(true)
	drained := pf.drain(oldHome)
	<-pf.inSnapshot // the migration holds the gate from here until release

	opDone := make(chan string, 1)
	go func() {
		resp, err := http.Post(front.URL+"/v1/sessions/"+s.id+"/ops", "application/json",
			strings.NewReader(`{"ops":[{"op":"step","n":1},{"op":"peek","name":"out"}]}`))
		if err != nil {
			opDone <- err.Error()
			return
		}
		defer resp.Body.Close()
		var out server.OpsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Results) != 2 {
			opDone <- fmt.Sprintf("status %d, results %+v, err %v", resp.StatusCode, out.Results, err)
			return
		}
		opDone <- out.Results[1].Value
	}()
	// Room for an ungated op to get through; a gated one is still waiting.
	select {
	case v := <-opDone:
		t.Fatalf("proxied op finished (out = %q) while the migration held the gate", v)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := <-opDone; got != "8'h5" {
		t.Fatalf("op after the gate: out = %q, want 8'h5 (6 cycles, none lost or doubled)", got)
	}
	if n := pf.opsSeen[oldHome].Load() - before; n != 0 {
		t.Fatalf("%d ops requests reached the old home after the migration took the gate", n)
	}
}

// TestFleetViewDuringDrain is the router's lock-order regression: a GET
// /fleet that arrives while a drain holds a session's gate (paused in the old
// home's snapshot) must not wedge the router. The view once waited on the
// gate while holding the router lock, and the migration then waited on the
// router lock to pick its target, so neither ever returned.
func TestFleetViewDuringDrain(t *testing.T) {
	pf := newPausedFleet(t)
	s, created := createSession(t, pf.front.URL, readDesign(t, "counter.fir"), server.SessionSpec{})
	s.ops(server.Op{Op: "step", N: 3})

	pf.pause.Store(true)
	drained := pf.drain(created.Replica)
	<-pf.inSnapshot
	// The view runs in process, so a wedged router leaves no HTTP request
	// behind for the servers' Close to wait on.
	fleetView := func() (int, string) {
		rec := httptest.NewRecorder()
		pf.rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/fleet", nil))
		return rec.Code, rec.Body.String()
	}
	viewed := make(chan int, 1)
	go func() {
		code, _ := fleetView()
		viewed <- code
	}()
	time.Sleep(50 * time.Millisecond) // room for the view to reach the gate
	close(pf.release)

	timeout := time.After(5 * time.Second)
	for pending := 2; pending > 0; pending-- {
		select {
		case err := <-drained:
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
		case code := <-viewed:
			if code != http.StatusOK {
				t.Fatalf("GET /fleet during the drain: status %d", code)
			}
		case <-timeout:
			t.Fatal("router wedged: DrainReplica and GET /fleet still blocked after 5s")
		}
	}
	code, body := fleetView()
	var out struct{ Replicas []ReplicaInfo }
	if err := json.Unmarshal([]byte(body), &out); code != http.StatusOK || err != nil {
		t.Fatalf("GET /fleet after the drain: status %d, %v", code, err)
	}
	for _, ri := range out.Replicas {
		want := 1 // the session moved to the other replica
		if ri.Name == created.Replica {
			want = 0
		}
		if ri.Sessions != want {
			t.Fatalf("after the drain: %+v", out.Replicas)
		}
	}
}

// TestRoutedOpAllocBudget bounds what one routed {poke, step 16, peek}
// request allocates across client, router and replica together — bytes, not
// time, so it means the same on any machine. The hop once copied every
// response through a fresh 32 KiB buffer (≈ 54 KiB per request in all); the
// bound fails long before that returns.
func TestRoutedOpAllocBudget(t *testing.T) {
	const budget = 24 << 10
	if leakcheck.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	fl := newTestFleet(t, "r1")
	s, _ := createSession(t, fl.router.URL, readDesign(t, "counter.fir"), server.SessionSpec{})
	body := []byte(`{"ops":[{"op":"poke","name":"en","value":"1"},{"op":"step","n":16},{"op":"peek","name":"out"}]}`)
	url := fl.router.URL + "/v1/sessions/" + s.id + "/ops"
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	var reply bytes.Buffer
	send := func() {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply.Reset()
		_, err = io.Copy(&reply, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("routed op: status %d, err %v", resp.StatusCode, err)
		}
	}
	for range 20 { // connections up, pools primed
		send()
	}
	const requests = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range requests {
		send()
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("routed op: %d bytes allocated per request (budget %d)", perRequest, budget)
	if perRequest > budget {
		t.Errorf("routed op allocates %d bytes per request, budget %d", perRequest, budget)
	}
	if want := `"value":"8'h`; !strings.Contains(reply.String(), want) {
		t.Errorf("last reply %q has no peeked value", reply.String())
	}
}
