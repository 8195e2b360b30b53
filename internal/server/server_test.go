package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gsim/internal/bitvec"
	"gsim/internal/core"
	"gsim/internal/firrtl"
	"gsim/internal/ir"
)

func readDesign(t testing.TB, name string) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestConcurrentSessionsShareOneCompile is the manager-level acceptance
// check: N concurrent sessions of one design share a single compiled design
// (one miss, N-1 hits), step concurrently (the race job runs this suite with
// -race), and every session's results match a single-process core.Build run
// fed the same stimulus.
func TestConcurrentSessionsShareOneCompile(t *testing.T) {
	src := readDesign(t, "fifo.fir")
	const nSessions = 4
	const cycles = 40

	// Reference trajectories, one per session's distinct stimulus.
	g, err := firrtl.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, nSessions)
	for si := 0; si < nSessions; si++ {
		sys, err := core.Build(g, core.GSIM())
		if err != nil {
			t.Fatal(err)
		}
		dout := sys.Graph.FindNode("dout")
		push, pop, din := sys.Graph.FindNode("push"), sys.Graph.FindNode("pop"), sys.Graph.FindNode("din")
		if dout == nil || push == nil || pop == nil || din == nil {
			t.Fatalf("fifo design nodes missing")
		}
		for c := 0; c < cycles; c++ {
			sys.Sim.Poke(push.ID, bitvec.FromUint64(push.Width, uint64(c%2)))
			sys.Sim.Poke(pop.ID, bitvec.FromUint64(pop.Width, uint64(c%3)&1))
			sys.Sim.Poke(din.ID, bitvec.FromUint64(din.Width, uint64(c*7+si)))
			sys.Sim.Step()
			want[si] = append(want[si], sys.Sim.Peek(dout.ID).String())
		}
		sys.Close()
	}

	m := NewManager()
	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for si := 0; si < nSessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			s, err := m.CreateSession(src, SessionSpec{})
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			for c := 0; c < cycles; c++ {
				res, err := s.Apply(context.Background(), []Op{
					{Op: "poke", Name: "push", Value: fmt.Sprintf("%d", c%2)},
					{Op: "poke", Name: "pop", Value: fmt.Sprintf("%d", (c%3)&1)},
					{Op: "poke", Name: "din", Value: fmt.Sprintf("%d", (c*7+si)&0xff)},
					{Op: "step"},
					{Op: "peek", Name: "dout"},
				})
				if err != nil {
					errs <- err
					return
				}
				if got := res[4].Value; got != want[si][c] {
					errs <- fmt.Errorf("session %d cycle %d: dout = %s, want %s", si, c, got, want[si][c])
					return
				}
			}
		}(si)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cs := m.CacheStats()
	if cs.Misses != 1 || cs.Hits != nSessions-1 || cs.Designs != 1 {
		t.Fatalf("cache stats: hits=%d misses=%d designs=%d, want %d/1/1", cs.Hits, cs.Misses, cs.Designs, nSessions-1)
	}
}

// TestCreateSessionGraphRefusesReleased: a compiled design's graph has no
// expression trees left, so a session over it is refused before it reaches
// the compile cache, where a cached failure would wedge its source key for
// the real graph.
func TestCreateSessionGraphRefusesReleased(t *testing.T) {
	g, err := firrtl.Load(readDesign(t, "counter.fir"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(g, core.GSIM())
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	m := NewManager()
	defer m.Drain(context.Background())
	if _, err := m.CreateSessionGraph(sys.Graph, "counter", SessionSpec{}); !errors.Is(err, ir.ErrReleased) {
		t.Fatalf("CreateSessionGraph of a compiled graph returned %v, want ir.ErrReleased", err)
	}
	if cs := m.CacheStats(); cs.Designs != 0 || cs.Misses != 0 {
		t.Fatalf("the refusal reached the compile cache: %+v", cs)
	}
	s, err := m.CreateSessionGraph(g, "counter", SessionSpec{})
	if err != nil {
		t.Fatalf("the source graph under the same key: %v", err)
	}
	s.Close()
}

func postJSON(t *testing.T, url string, body, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

// TestHTTPSnapshotRestoreMidSession drives the full HTTP surface: create,
// batched ops, snapshot mid-session, diverge, restore, and verify the
// restored continuation matches the pre-divergence trajectory.
func TestHTTPSnapshotRestoreMidSession(t *testing.T) {
	m := NewManager()
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	defer m.Drain(context.Background())

	var created CreateResponse
	resp := postJSON(t, ts.URL+"/v1/sessions", CreateRequest{FIRRTL: readDesign(t, "counter.fir")}, &created)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if created.CacheHit {
		t.Fatal("first session reported a cache hit")
	}
	base := ts.URL + "/v1/sessions/" + created.Session

	// Enable and run 10 cycles, reading the counter.
	var ops OpsResponse
	postJSON(t, base+"/ops", OpsRequest{Ops: []Op{
		{Op: "poke", Name: "en", Value: "1"},
		{Op: "step", N: 10},
		{Op: "peek", Name: "out"},
	}}, &ops)
	at10 := ops.Results[2].Value
	if ops.Results[1].Cycles != 10 {
		t.Fatalf("cycles after step = %d, want 10", ops.Results[1].Cycles)
	}

	var snap SnapshotResponse
	postJSON(t, base+"/snapshot", struct{}{}, &snap)
	if snap.Cycles != 10 || snap.Bytes == 0 {
		t.Fatalf("snapshot meta: %+v", snap)
	}

	// Diverge: 7 more cycles.
	postJSON(t, base+"/ops", OpsRequest{Ops: []Op{{Op: "step", N: 7}, {Op: "peek", Name: "out"}}}, &ops)
	at17 := ops.Results[1].Value
	if at17 == at10 {
		t.Fatal("counter did not advance")
	}

	// Restore the checkpoint and verify the value and cycle count rewound.
	var restored RestoreResponse
	postJSON(t, base+"/restore", RestoreRequest{Snapshot: snap.Snapshot}, &restored)
	if restored.Cycles != 10 {
		t.Fatalf("restored cycles = %d, want 10", restored.Cycles)
	}
	postJSON(t, base+"/ops", OpsRequest{Ops: []Op{{Op: "peek", Name: "out"}, {Op: "step", N: 7}, {Op: "peek", Name: "out"}}}, &ops)
	if ops.Results[0].Value != at10 {
		t.Fatalf("after restore out = %s, want %s", ops.Results[0].Value, at10)
	}
	if ops.Results[2].Value != at17 {
		t.Fatalf("replayed 7 cycles: out = %s, want %s", ops.Results[2].Value, at17)
	}

	// A second session of the same design is a cache hit and restores the
	// first session's snapshot (same compiled design, same hash).
	var created2 CreateResponse
	postJSON(t, ts.URL+"/v1/sessions", CreateRequest{FIRRTL: readDesign(t, "counter.fir")}, &created2)
	if !created2.CacheHit {
		t.Fatal("second session missed the compile cache")
	}
	if created2.DesignHash != created.DesignHash {
		t.Fatal("sessions of one design disagree on its hash")
	}
	base2 := ts.URL + "/v1/sessions/" + created2.Session
	postJSON(t, base2+"/restore", RestoreRequest{Snapshot: snap.Snapshot}, &restored)
	postJSON(t, base2+"/ops", OpsRequest{Ops: []Op{{Op: "peek", Name: "out"}}}, &ops)
	if ops.Results[0].Value != at10 {
		t.Fatalf("cross-session restore: out = %s, want %s", ops.Results[0].Value, at10)
	}

	var stats StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Sessions != 2 || stats.Designs != 1 || stats.CacheHits != 1 {
		t.Fatalf("stats: %+v", stats)
	}

	// Closing a session 404s further ops.
	req, _ := http.NewRequest(http.MethodDelete, base2, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", delResp.StatusCode)
	}
	if resp := postJSON(t, base2+"/ops", OpsRequest{Ops: []Op{{Op: "step"}}}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ops on closed session: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPErrors pins the API's refusal paths.
// TestCreateRefusesThreadsOfOneWorkerEngines: only verilator runs more than
// one worker, so gsim-serve answers {"engine":"gsim","threads":2} with a 400
// naming "threads", and the Go API refuses the same spec, before anything
// compiles; one worker stays valid.
func TestCreateRefusesThreadsOfOneWorkerEngines(t *testing.T) {
	m := NewManager()
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	src := readDesign(t, "counter.fir")
	for _, engine := range []string{"gsim", "essent", "arcilator"} {
		var refusal struct{ Error string }
		body := map[string]any{"firrtl": src, "engine": engine, "threads": 2}
		if resp := postJSON(t, ts.URL+"/v1/sessions", body, &refusal); resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(refusal.Error, `"threads"`) {
			t.Fatalf("%s with 2 threads: status %d, error %q; want 400 naming the field", engine, resp.StatusCode, refusal.Error)
		}
		if _, err := m.CreateSession(src, SessionSpec{Engine: engine, Threads: 2}); err == nil || !strings.Contains(err.Error(), `"threads"`) {
			t.Fatalf("CreateSession(%s, 2 threads) returned %v, want a refusal naming the field", engine, err)
		}
	}
	if st := m.CacheStats(); m.SessionCount() != 0 || st.Misses != 0 {
		t.Fatalf("the refusals reached the manager: %d sessions, cache %+v", m.SessionCount(), st)
	}
	s, err := m.CreateSession(src, SessionSpec{Engine: "gsim", Threads: 1})
	if err != nil {
		t.Fatalf("gsim with one thread: %v", err)
	}
	s.Close()
}

func TestHTTPErrors(t *testing.T) {
	m := NewManager()
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	if resp := postJSON(t, ts.URL+"/v1/sessions", CreateRequest{FIRRTL: "not firrtl at all"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad firrtl: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/sessions", CreateRequest{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty firrtl: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/sessions",
		CreateRequest{FIRRTL: readDesign(t, "counter.fir"), SessionSpec: SessionSpec{Engine: "nope"}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad engine: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/sessions",
		CreateRequest{FIRRTL: readDesign(t, "counter.fir"), SessionSpec: SessionSpec{Engine: "essent", Threads: 2}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("threads with essent: status %d", resp.StatusCode)
	}
	before := m.CacheStats()
	for _, removed := range []struct {
		field string
		value any
	}{{"eval", "kernel"}, {"coarsen", true}, {"coarsen", false}} {
		var refusal struct{ Error string }
		body := map[string]any{"firrtl": readDesign(t, "counter.fir"), "threads": 2, removed.field: removed.value}
		if resp := postJSON(t, ts.URL+"/v1/sessions", body, &refusal); resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(refusal.Error, `"`+removed.field+`"`) {
			t.Fatalf("removed field %s=%v: status %d, error %q; want 400 naming the field",
				removed.field, removed.value, resp.StatusCode, refusal.Error)
		}
	}
	// A worker count outside [0, core.MaxThreads] is refused before it compiles a
	// cache entry or starts a goroutine, over HTTP and through the Go API.
	g, err := firrtl.Load(readDesign(t, "counter.fir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{-1, core.MaxThreads + 1, 10_000_000} {
		var refusal struct{ Error string }
		body := map[string]any{"firrtl": readDesign(t, "counter.fir"), "engine": "verilator", "threads": threads}
		if resp := postJSON(t, ts.URL+"/v1/sessions", body, &refusal); resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(refusal.Error, `"threads"`) {
			t.Fatalf("threads %d: status %d, error %q; want 400 naming the field", threads, resp.StatusCode, refusal.Error)
		}
		if _, err := m.CreateSessionGraph(g, "counter", SessionSpec{Threads: threads}); err == nil || !strings.Contains(err.Error(), `"threads"`) {
			t.Fatalf("CreateSessionGraph with threads %d returned %v, want a refusal naming the field", threads, err)
		}
	}
	if n := m.SessionCount(); n != 0 {
		t.Fatalf("%d sessions open after the refusals, want 0", n)
	}
	if after := m.CacheStats(); after != before {
		t.Fatalf("the refusals reached the compile cache: %+v, then %+v", before, after)
	}

	var created CreateResponse
	postJSON(t, ts.URL+"/v1/sessions", CreateRequest{FIRRTL: readDesign(t, "counter.fir")}, &created)
	base := ts.URL + "/v1/sessions/" + created.Session
	if resp := postJSON(t, base+"/ops", OpsRequest{Ops: []Op{{Op: "peek", Name: "no_such_node"}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown node: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/ops", OpsRequest{Ops: []Op{{Op: "poke", Name: "en", Value: "zz"}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad literal: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/restore", RestoreRequest{Snapshot: "!!!"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad base64: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/restore",
		RestoreRequest{Snapshot: base64.StdEncoding.EncodeToString([]byte("garbage"))}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage snapshot: status %d", resp.StatusCode)
	}
}

// TestDrain pins graceful shutdown semantics: after Drain, creates are
// refused, existing sessions are closed, and Drain is idempotent.
func TestDrain(t *testing.T) {
	m := NewManager()
	src := readDesign(t, "counter.fir")
	s, err := m.CreateSession(src, SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m.SessionCount() != 0 {
		t.Fatalf("drain left %d sessions", m.SessionCount())
	}
	if _, err := s.Step(1); err == nil {
		t.Fatal("step on drained session succeeded")
	}
	if _, err := m.CreateSession(src, SessionSpec{}); err == nil {
		t.Fatal("create after drain succeeded")
	}
	if err := m.Drain(context.Background()); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestServerEndToEnd is the scripted smoke the CI job runs under -race: it
// builds the real gsim-serve and gsim binaries, starts the server, drives a
// multi-session client over real HTTP — including a snapshot/restore
// mid-session — diffs every per-cycle value against the local cmd/gsim run,
// and finally exercises the graceful drain path via SIGTERM.
func TestServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke skipped in -short")
	}
	bin := t.TempDir()
	for _, target := range []string{"gsim-serve", "gsim"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, target), "gsim/cmd/"+target).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", target, err, out)
		}
	}
	design, err := filepath.Abs("../../testdata/counter.fir")
	if err != nil {
		t.Fatal(err)
	}

	// Local reference: cmd/gsim with -watch prints out= per cycle.
	const cycles = 30
	cliOut, err := exec.Command(filepath.Join(bin, "gsim"),
		"-cycles", fmt.Sprint(cycles), "-poke", "en=1", "-watch", "out", design).Output()
	if err != nil {
		t.Fatalf("gsim run: %v", err)
	}
	watchRe := regexp.MustCompile(`cycle\s+\d+: out=(\S+)`)
	var want []string
	for _, line := range strings.Split(string(cliOut), "\n") {
		if mm := watchRe.FindStringSubmatch(line); mm != nil {
			want = append(want, mm[1])
		}
	}
	if len(want) != cycles {
		t.Fatalf("parsed %d watch lines from gsim, want %d\n%s", len(want), cycles, cliOut)
	}

	// Start the server on an ephemeral port and scrape the address.
	serve := exec.Command(filepath.Join(bin, "gsim-serve"), "-addr", "127.0.0.1:0", "-log-level", "warn")
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	serve.Stderr = os.Stderr
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer serve.Process.Kill()
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatal("no banner from gsim-serve")
	}
	addrRe := regexp.MustCompile(`listening on (http://\S+)`)
	mm := addrRe.FindStringSubmatch(sc.Text())
	if mm == nil {
		t.Fatalf("unexpected banner %q", sc.Text())
	}
	url := mm[1]
	// Keep draining the banner pipe so the server never blocks on stdout;
	// collect it for the drain assertions at the end.
	var tail strings.Builder
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		for sc.Scan() {
			tail.WriteString(sc.Text() + "\n")
		}
	}()

	srcBytes, err := os.ReadFile(design)
	if err != nil {
		t.Fatal(err)
	}
	src := string(srcBytes)

	// Two concurrent sessions; session 1 additionally checkpoints at cycle
	// 10, diverges, restores, and must land back on the reference trajectory.
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for si := 0; si < 2; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			var created CreateResponse
			postJSON(t, url+"/v1/sessions", CreateRequest{FIRRTL: src}, &created)
			base := url + "/v1/sessions/" + created.Session
			var ops OpsResponse
			postJSON(t, base+"/ops", OpsRequest{Ops: []Op{{Op: "poke", Name: "en", Value: "1"}}}, &ops)
			var snap SnapshotResponse
			didRestore := false
			for c := 0; c < cycles; c++ {
				postJSON(t, base+"/ops", OpsRequest{Ops: []Op{{Op: "step"}, {Op: "peek", Name: "out"}}}, &ops)
				if got := ops.Results[1].Value; got != want[c] {
					errCh <- fmt.Errorf("session %d cycle %d: out=%s, gsim says %s", si, c, got, want[c])
					return
				}
				if si == 1 && c == 9 && !didRestore {
					postJSON(t, base+"/snapshot", struct{}{}, &snap)
				}
				if si == 1 && c == 19 && !didRestore {
					didRestore = true
					var restored RestoreResponse
					postJSON(t, base+"/restore", RestoreRequest{Snapshot: snap.Snapshot}, &restored)
					if restored.Cycles != 10 {
						errCh <- fmt.Errorf("restore rewound to cycle %d, want 10", restored.Cycles)
						return
					}
					c = 9 // replay the same reference values from the checkpoint
				}
			}
		}(si)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The two sessions must have shared one compile.
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.CacheMisses != 1 || stats.CacheHits != 1 {
		t.Fatalf("stats: %+v, want exactly one compile shared by two sessions", stats)
	}

	// Graceful drain: SIGTERM, then wait for stdout EOF (the child exiting
	// closes the pipe) before Wait — calling Wait while the tail goroutine
	// still reads the pipe would race it closed under the farewell line.
	if err := serve.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tailDone:
	case <-time.After(15 * time.Second):
		t.Fatal("gsim-serve did not drain within 15s")
	}
	if err := serve.Wait(); err != nil {
		t.Fatalf("gsim-serve exited with %v", err)
	}
	if !strings.Contains(tail.String(), "drained") {
		t.Fatalf("no drain confirmation in output:\n%s", tail.String())
	}
}
