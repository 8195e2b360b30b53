package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"gsim/internal/obs"
	"gsim/internal/server"
)

// TestLiveReport runs the -live path against an instrumented manager served
// over real HTTP: a session steps in the background while runLive takes its
// two scrapes, so every rate section has a nonzero window to render.
func TestLiveReport(t *testing.T) {
	mgr := server.NewManager()
	defer mgr.Drain(context.Background())
	reg := obs.NewRegistry()
	mgr.InitObs(reg)
	obs.RegisterProcessMetrics(reg)
	ts := httptest.NewServer(mgr.Handler())
	defer ts.Close()

	src, err := os.ReadFile("../../testdata/counter.fir")
	if err != nil {
		t.Fatal(err)
	}
	sid := createOverHTTP(t, ts.URL, string(src))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				postOps(t, ts.URL, sid, 50)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	var buf bytes.Buffer
	if err := runLive(&buf, ts.URL, 300*time.Millisecond); err != nil {
		t.Fatalf("runLive: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"engine", "sim speed", "per-session",
		"server", "sessions", "op step",
		"compile cache", "hit rate",
		"process", "goroutines", "alloc / request", "GC cycles / s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("live report missing %q; got:\n%s", want, out)
		}
	}
}

// TestLiveAgainstRunningServe is the binary-level e2e: build gsim-serve and
// gsim-diag, start the server, step a session in the background, and assert
// `gsim-diag -live` renders the rate tables against the live process.
func TestLiveAgainstRunningServe(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e skipped in -short")
	}
	bin := t.TempDir()
	for _, target := range []string{"gsim-serve", "gsim-diag"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, target), "gsim/cmd/"+target).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", target, err, out)
		}
	}

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
	mm := regexp.MustCompile(`listening on (http://\S+)`).FindStringSubmatch(sc.Text())
	if mm == nil {
		t.Fatalf("unexpected banner %q", sc.Text())
	}
	url := mm[1]
	go func() {
		for sc.Scan() {
		}
	}()

	src, err := os.ReadFile("../../testdata/counter.fir")
	if err != nil {
		t.Fatal(err)
	}
	sid := createOverHTTP(t, url, string(src))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				postOps(t, url, sid, 50)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	out, err := exec.Command(filepath.Join(bin, "gsim-diag"),
		"-live", url, "-interval", "500ms").CombinedOutput()
	if err != nil {
		t.Fatalf("gsim-diag -live: %v\n%s", err, out)
	}
	for _, want := range []string{"sim speed", "op step", "hit rate"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("gsim-diag -live output missing %q; got:\n%s", want, out)
		}
	}
}

// createOverHTTP opens one session and returns its ID.
func createOverHTTP(t *testing.T, base, firrtl string) string {
	t.Helper()
	body, err := json.Marshal(server.CreateRequest{FIRRTL: firrtl})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var created server.CreateResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated || created.Session == "" {
		t.Fatalf("create: status %d, session %q", resp.StatusCode, created.Session)
	}
	return created.Session
}

// postOps steps the session n cycles (best-effort: the server may already be
// shutting down when the background stepper's last batch lands).
func postOps(t *testing.T, base, sid string, n int) {
	t.Helper()
	body, err := json.Marshal(server.OpsRequest{Ops: []server.Op{{Op: "step", N: n}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions/"+sid+"/ops", "application/json", bytes.NewReader(body))
	if err != nil {
		return
	}
	resp.Body.Close()
}
