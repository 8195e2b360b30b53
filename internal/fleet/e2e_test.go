package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gsim/internal/server"
)

// TestFleetEndToEnd is the subprocess smoke the CI fleet-smoke job runs: a
// real gsim-router process fronting three real gsim-serve replicas (each
// self-registered via -router/-advertise), a traced scalar session and a
// traced gang session stepped mid-run, the replica homing them SIGTERMed —
// which must retire gracefully: readiness flips, the router live-migrates
// both sessions, the process exits clean — and both trajectories finished on
// their new homes must be bit-identical (state snapshot, stats, VCD bytes)
// to uninterrupted in-process reference runs.
func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke skipped in -short")
	}
	bin := t.TempDir()
	for _, target := range []string{"gsim-serve", "gsim-router"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, target), "gsim/cmd/"+target).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", target, err, out)
		}
	}
	for _, engineName := range []string{"gsim", "verilator"} {
		t.Run(engineName, func(t *testing.T) { fleetEndToEnd(t, bin, engineName) })
	}
}

// fleetEndToEnd is one TestFleetEndToEnd run, every session on engine
// engineName.
func fleetEndToEnd(t *testing.T, bin, engineName string) {
	src := readDesign(t, "counter.fir")

	// The router, on an ephemeral port with fast health probing.
	routerURL, _, routerKill := startProcTail(t, filepath.Join(bin, "gsim-router"),
		"-addr", "127.0.0.1:0", "-probe-interval", "500ms", "-retry-backoff", "5ms")
	defer routerKill()

	// Three replicas registered with it. Replica tails are collected so the
	// SIGTERM path's own reporting can be asserted.
	type replica struct {
		name string
		url  string
		cmd  *exec.Cmd
		tail *procTail
	}
	var reps []replica
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("rep%d", i)
		url, tail, kill := startProcTail(t, filepath.Join(bin, "gsim-serve"),
			"-addr", "127.0.0.1:0", "-router", routerURL, "-name", name, "-drain-timeout", "30s")
		defer kill()
		reps = append(reps, replica{name: name, url: url, cmd: tail.cmd, tail: tail})
	}
	waitFor(t, 10*time.Second, func() bool {
		var fleetResp struct {
			Replicas []ReplicaInfo `json:"replicas"`
		}
		if doJSON(t, "GET", routerURL+"/fleet", nil, &fleetResp) != http.StatusOK {
			return false
		}
		ready := 0
		for _, r := range fleetResp.Replicas {
			if r.State == "ready" {
				ready++
			}
		}
		return ready == 3
	})

	scalarSpec := server.SessionSpec{Engine: engineName, TraceLanes: []int{0}}
	gangSpec := server.SessionSpec{Engine: engineName, Lanes: 3, TraceLanes: []int{1}}
	scalarP1 := []server.Op{{Op: "poke", Name: "en", Value: "1"}, {Op: "step", N: 12}}
	scalarP2 := []server.Op{{Op: "step", N: 9}, {Op: "peek", Name: "out"}}
	gangP1 := []server.Op{
		{Op: "poke", Name: "en", Value: "1", Lane: lane(0)},
		{Op: "poke", Name: "en", Value: "1", Lane: lane(1)},
		{Op: "step", N: 6},
		{Op: "park", Lane: lane(2)},
		{Op: "step", N: 3},
	}
	gangP2 := []server.Op{
		{Op: "step", N: 4},
		{Op: "wake", Lane: lane(2)},
		{Op: "step", N: 2},
		{Op: "peek", Name: "out", Lane: lane(1)},
	}

	// Uninterrupted references, computed in-process (compiles are
	// deterministic across processes, so blobs and waveforms are comparable).
	refURL := refServer(t)
	refScalar, _ := createSession(t, refURL, src, scalarSpec)
	refScalar.ops(scalarP1...)
	refScalarPeek := refScalar.ops(scalarP2...)[1].Value
	refScalarBlob, _ := refScalar.snapshotLane(0)
	refScalarVCD := refScalar.vcd(0)
	refGang, _ := createSession(t, refURL, src, gangSpec)
	refGang.ops(gangP1...)
	refGangPeek := refGang.ops(gangP2...)[3].Value
	var refGangBlobs [][]byte
	for l := 0; l < 3; l++ {
		b, _ := refGang.snapshotLane(l)
		refGangBlobs = append(refGangBlobs, b)
	}
	refGangVCD := refGang.vcd(1)

	// The fleet run. Both sessions share one design, so affinity homes them
	// on the same replica — the one we then terminate.
	scalar, scalarCreated := createSession(t, routerURL, src, scalarSpec)
	gang, gangCreated := createSession(t, routerURL, src, gangSpec)
	if scalarCreated.Replica != gangCreated.Replica {
		t.Fatalf("affinity broken across processes: scalar on %s, gang on %s",
			scalarCreated.Replica, gangCreated.Replica)
	}
	scalar.ops(scalarP1...)
	gang.ops(gangP1...)

	var victim replica
	for _, r := range reps {
		if r.name == scalarCreated.Replica {
			victim = r
		}
	}
	if victim.name == "" {
		t.Fatalf("home %s not among started replicas", scalarCreated.Replica)
	}
	if err := victim.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := victim.tail.waitExit(); err != nil {
		t.Fatalf("victim replica exited dirty: %v\n%s", err, victim.tail.String())
	}
	if out := victim.tail.String(); !strings.Contains(out, "all sessions migrated away") {
		t.Fatalf("victim did not report a clean migration handoff:\n%s", out)
	}

	// Both sessions must keep serving through the router, now on new homes.
	if got := scalar.ops(scalarP2...)[1].Value; got != refScalarPeek {
		t.Fatalf("scalar peek after migration: %s, reference %s", got, refScalarPeek)
	}
	if got := gang.ops(gangP2...)[3].Value; got != refGangPeek {
		t.Fatalf("gang peek after migration: %s, reference %s", got, refGangPeek)
	}
	if blob, _ := scalar.snapshotLane(0); !bytes.Equal(blob, refScalarBlob) {
		t.Fatal("scalar state snapshot differs from uninterrupted reference")
	}
	if vcd := scalar.vcd(0); !bytes.Equal(vcd, refScalarVCD) {
		t.Fatalf("scalar VCD differs from uninterrupted reference:\n--- migrated\n%s\n--- reference\n%s", vcd, refScalarVCD)
	}
	for l := 0; l < 3; l++ {
		if blob, _ := gang.snapshotLane(l); !bytes.Equal(blob, refGangBlobs[l]) {
			t.Fatalf("gang lane %d state snapshot differs from uninterrupted reference", l)
		}
	}
	if vcd := gang.vcd(1); !bytes.Equal(vcd, refGangVCD) {
		t.Fatalf("gang VCD differs from uninterrupted reference:\n--- migrated\n%s\n--- reference\n%s", vcd, refGangVCD)
	}

	var stats FleetStats
	if doJSON(t, "GET", routerURL+"/v1/stats", nil, &stats) != http.StatusOK {
		t.Fatal("router stats unavailable after migration")
	}
	if stats.Migrated != 2 || stats.SessionsLost != 0 || stats.MigrationsFail != 0 {
		t.Fatalf("migration accounting: %+v", stats)
	}
}

// --- subprocess plumbing ---------------------------------------------------

var bannerRe = regexp.MustCompile(`listening on (http://\S+)`)

type procTail struct {
	cmd     *exec.Cmd
	drained chan struct{} // closed when stdout hits EOF (process exited)
	mu      sync.Mutex
	buf     strings.Builder
}

func (p *procTail) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.String()
}

// waitExit blocks until the process exits AND its stdout is fully drained —
// cmd.Wait alone closes the pipe and can race the tail goroutine out of the
// final lines.
func (p *procTail) waitExit() error {
	<-p.drained
	return p.cmd.Wait()
}

// startProcTail launches a binary that prints a "listening on http://..."
// banner, scrapes the URL, and keeps draining its stdout (so the process
// never blocks) into an inspectable tail. kill is idempotent and safe after
// the process already exited.
func startProcTail(t *testing.T, bin string, args ...string) (url string, tail *procTail, kill func()) {
	t.Helper()
	// Warn-level logging keeps the forwarded stderr quiet in healthy runs
	// while still surfacing drain/migration failures.
	cmd := exec.Command(bin, append([]string{"-log-level", "warn"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		_ = cmd.Process.Kill()
		t.Fatalf("no banner from %s", bin)
	}
	mm := bannerRe.FindStringSubmatch(sc.Text())
	if mm == nil {
		_ = cmd.Process.Kill()
		t.Fatalf("unexpected banner %q from %s", sc.Text(), bin)
	}
	tail = &procTail{cmd: cmd, drained: make(chan struct{})}
	go func() {
		defer close(tail.drained)
		for sc.Scan() {
			tail.mu.Lock()
			tail.buf.WriteString(sc.Text() + "\n")
			tail.mu.Unlock()
		}
	}()
	var once sync.Once
	kill = func() {
		once.Do(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
			<-tail.drained
		})
	}
	return mm[1], tail, kill
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met within timeout")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
