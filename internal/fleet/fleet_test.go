package fleet

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gsim/internal/faultpoint"
	"gsim/internal/server"
)

// --- in-process fleet harness ---------------------------------------------

// testFleet is an in-process fleet: N managers behind httptest servers,
// registered with a router that is itself served over httptest. Everything
// is torn down (and leak-checked by TestMain) via t.Cleanup.
type testFleet struct {
	t      *testing.T
	rt     *Router
	router *httptest.Server
	mgrs   map[string]*server.Manager
	reps   map[string]*httptest.Server
}

func newTestFleet(t *testing.T, names ...string) *testFleet {
	t.Helper()
	rt := NewRouter(Config{RetryBackoff: time.Millisecond})
	fl := &testFleet{
		t:    t,
		rt:   rt,
		mgrs: make(map[string]*server.Manager),
		reps: make(map[string]*httptest.Server),
	}
	for _, name := range names {
		mgr := server.NewManager()
		ts := httptest.NewServer(mgr.Handler())
		fl.mgrs[name] = mgr
		fl.reps[name] = ts
		rt.Register(name, ts.URL)
	}
	fl.router = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		fl.router.Close()
		rt.Close()
		for name, ts := range fl.reps {
			_ = fl.mgrs[name].Drain(context.Background())
			ts.Close()
		}
	})
	return fl
}

// home returns the replica a routed session currently lives on.
func (fl *testFleet) home(sid string) string {
	fl.rt.mu.Lock()
	fs, ok := fl.rt.sessions[sid]
	fl.rt.mu.Unlock()
	if !ok {
		fl.t.Fatalf("no routed session %s", sid)
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.replica
}

func readDesign(t testing.TB, name string) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func doJSON(t testing.TB, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("%s %s: undecodable body: %v", method, url, err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: %v (body %s)", method, url, err, raw)
		}
	}
	return resp.StatusCode
}

// apiSession drives one session over HTTP — the same helper serves routed
// sessions (base = router URL) and direct ones (base = replica URL), which
// is what lets the bit-identity tests compare a migrated trajectory against
// an uninterrupted reference through identical machinery.
type apiSession struct {
	t    *testing.T
	base string
	id   string
}

func createSession(t *testing.T, base, firrtl string, spec server.SessionSpec) (apiSession, RoutedCreateResponse) {
	t.Helper()
	var resp RoutedCreateResponse
	status := doJSON(t, "POST", base+"/v1/sessions", server.CreateRequest{FIRRTL: firrtl, SessionSpec: spec}, &resp)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	return apiSession{t: t, base: base, id: resp.Session}, resp
}

func (s apiSession) ops(ops ...server.Op) []server.OpResult {
	s.t.Helper()
	var resp server.OpsResponse
	if status := doJSON(s.t, "POST", s.base+"/v1/sessions/"+s.id+"/ops", server.OpsRequest{Ops: ops}, &resp); status != http.StatusOK {
		s.t.Fatalf("ops: status %d", status)
	}
	return resp.Results
}

func (s apiSession) snapshotLane(lane int) ([]byte, uint64) {
	s.t.Helper()
	var resp server.SnapshotResponse
	url := fmt.Sprintf("%s/v1/sessions/%s/snapshot?lane=%d", s.base, s.id, lane)
	if status := doJSON(s.t, "POST", url, struct{}{}, &resp); status != http.StatusOK {
		s.t.Fatalf("snapshot lane %d: status %d", lane, status)
	}
	data, err := base64.StdEncoding.DecodeString(resp.Snapshot)
	if err != nil {
		s.t.Fatal(err)
	}
	return data, resp.Cycles
}

func (s apiSession) vcd(lane int) []byte {
	s.t.Helper()
	var resp server.VCDResponse
	url := fmt.Sprintf("%s/v1/sessions/%s/vcd?lane=%d", s.base, s.id, lane)
	if status := doJSON(s.t, "GET", url, nil, &resp); status != http.StatusOK {
		s.t.Fatalf("vcd lane %d: status %d", lane, status)
	}
	return []byte(resp.VCD)
}

func (s apiSession) laneInfos() []server.LaneInfo {
	s.t.Helper()
	var infos []server.LaneInfo
	if status := doJSON(s.t, "GET", s.base+"/v1/sessions/"+s.id+"/lanes", nil, &infos); status != http.StatusOK {
		s.t.Fatalf("lanes: status %d", status)
	}
	return infos
}

func lane(n int) *int { return &n }

// refServer opens a standalone replica (no fleet) for uninterrupted
// reference trajectories.
func refServer(t *testing.T) string {
	t.Helper()
	mgr := server.NewManager()
	ts := httptest.NewServer(mgr.Handler())
	t.Cleanup(func() {
		_ = mgr.Drain(context.Background())
		ts.Close()
	})
	return ts.URL
}

// --- placement + proxy -----------------------------------------------------

// TestPlacementAffinity pins the economics the router exists for: every
// session of one design — scalar or gang, traced or not, one worker asked
// for or left unset — lands on the same replica, so the whole fleet pays
// exactly one compile for it.
func TestPlacementAffinity(t *testing.T) {
	fl := newTestFleet(t, "r1", "r2", "r3")
	src := readDesign(t, "counter.fir")

	specs := []server.SessionSpec{
		{},
		{Threads: 1},
		{Lanes: 4},
		{TraceLanes: []int{0}},
		{Lanes: 2, TraceLanes: []int{1}},
	}
	var home string
	for i, spec := range specs {
		_, resp := createSession(t, fl.router.URL, src, spec)
		if i == 0 {
			home = resp.Replica
		} else if resp.Replica != home {
			t.Fatalf("session %d (spec %+v) placed on %s, earlier ones on %s", i, spec, resp.Replica, home)
		}
	}

	var stats FleetStats
	if status := doJSON(t, "GET", fl.router.URL+"/v1/stats", nil, &stats); status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	var hits, misses uint64
	for _, rs := range stats.PerReplica {
		hits += rs.CacheHits
		misses += rs.CacheMisses
	}
	if misses != 1 || hits != uint64(len(specs)-1) {
		t.Fatalf("fleet compiled %d times with %d cache hits for one design, want 1 compile / %d hits",
			misses, hits, len(specs)-1)
	}

	// A spec that changes the compile key places independently — and also
	// deterministically (same key, same home).
	_, a := createSession(t, fl.router.URL, src, server.SessionSpec{MaxSupernode: 3})
	_, b := createSession(t, fl.router.URL, src, server.SessionSpec{MaxSupernode: 3})
	if a.Replica != b.Replica {
		t.Fatalf("same placement key landed on %s then %s", a.Replica, b.Replica)
	}
}

// TestRouterRefusesRemovedField: a create body naming a removed spec field
// ("eval", "coarsen") or a worker count outside [0, 64] is refused by the
// router itself, with the replica's 400 naming the field, and is placed
// nowhere: no session is created and no replica compiles or pins a design.
func TestRouterRefusesRemovedField(t *testing.T) {
	fl := newTestFleet(t, "r1")
	for _, removed := range []string{`"eval": "interp"`, `"coarsen": true`, `"coarsen": false`} {
		field, _, _ := strings.Cut(removed, ":")
		body := fmt.Sprintf(`{"firrtl": %q, "threads": 2, %s}`, readDesign(t, "counter.fir"), removed)
		refuseCreate(t, fl.router.URL, body, field)
	}
	// A worker count outside [0, 64] is refused before placement.
	for _, threads := range []int{-1, 65, 10_000_000} {
		body := fmt.Sprintf(`{"firrtl": %q, "engine": "verilator", "threads": %d}`, readDesign(t, "counter.fir"), threads)
		refuseCreate(t, fl.router.URL, body, `"threads"`)
	}
	var list []RoutedSessionInfo
	if status := doJSON(t, "GET", fl.router.URL+"/v1/sessions", nil, &list); status != http.StatusOK || len(list) != 0 {
		t.Fatalf("after the refusals: status %d, sessions %+v", status, list)
	}
	for name, m := range fl.mgrs {
		if n, st := m.SessionCount(), m.CacheStats(); n != 0 || st.Designs != 0 || st.Misses != 0 {
			t.Fatalf("replica %s after the refusals: %d sessions, cache %+v", name, n, st)
		}
	}
}

// TestRouterRefusesThreadsOfOneWorkerEngines: only verilator runs more than
// one worker, so the router itself answers a create asking gsim or essent
// for two with a 400 naming "threads", and no create reaches a replica.
func TestRouterRefusesThreadsOfOneWorkerEngines(t *testing.T) {
	fl := newTestFleet(t, "r1")
	for _, engine := range []string{"gsim", "essent"} {
		body := fmt.Sprintf(`{"firrtl": %q, "engine": %q, "threads": 2}`, readDesign(t, "counter.fir"), engine)
		refuseCreate(t, fl.router.URL, body, `"threads"`)
	}
	for name, m := range fl.mgrs {
		if n, st := m.SessionCount(), m.CacheStats(); n != 0 || st.Designs != 0 || st.Misses != 0 {
			t.Fatalf("replica %s after the refusals: %d sessions, cache %+v", name, n, st)
		}
	}
	// One worker stays valid for every engine.
	createSession(t, fl.router.URL, readDesign(t, "counter.fir"), server.SessionSpec{Engine: "essent", Threads: 1})
}

// refuseCreate posts a create body to the router and requires a 400 whose
// error names field.
func refuseCreate(t *testing.T, router, body, field string) {
	t.Helper()
	resp, err := http.Post(router+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var refusal struct{ Error string }
	err = json.NewDecoder(resp.Body).Decode(&refusal)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(refusal.Error, field) {
		t.Fatalf("create naming %s: status %d, error %q; want 400 naming the field", field, resp.StatusCode, refusal.Error)
	}
}

func TestRouterProxy(t *testing.T) {
	fl := newTestFleet(t, "r1", "r2")
	s, created := createSession(t, fl.router.URL, readDesign(t, "counter.fir"), server.SessionSpec{})
	if created.DesignHash == "" || created.Replica == "" {
		t.Fatalf("create response missing routing metadata: %+v", created)
	}

	results := s.ops(
		server.Op{Op: "poke", Name: "en", Value: "1"},
		server.Op{Op: "step", N: 10},
		server.Op{Op: "peek", Name: "out"},
	)
	if len(results) != 3 || results[2].Value != "8'h9" {
		t.Fatalf("proxied ops results: %+v", results)
	}

	var list []RoutedSessionInfo
	if status := doJSON(t, "GET", fl.router.URL+"/v1/sessions", nil, &list); status != http.StatusOK || len(list) != 1 {
		t.Fatalf("list: status %d, %+v", status, list)
	}
	if list[0].Session != s.id || list[0].Replica != created.Replica || list[0].Cycles != 10 {
		t.Fatalf("listed session: %+v", list[0])
	}

	if status := doJSON(t, "POST", fl.router.URL+"/v1/sessions/nope/ops", server.OpsRequest{}, nil); status != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", status)
	}
	if status := doJSON(t, "DELETE", fl.router.URL+"/v1/sessions/"+s.id, nil, nil); status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}
	if status := doJSON(t, "POST", fl.router.URL+"/v1/sessions/"+s.id+"/ops", server.OpsRequest{}, nil); status != http.StatusNotFound {
		t.Fatalf("ops after delete: status %d, want 404", status)
	}
}

// TestCreateRetriesDrainingReplica: a replica that began draining on its own
// (SIGTERM landed before any router notification) refuses the create with
// 503; the router must re-resolve the ring and place elsewhere instead of
// surfacing the refusal.
func TestCreateRetriesDrainingReplica(t *testing.T) {
	fl := newTestFleet(t, "r1", "r2")
	src := readDesign(t, "counter.fir")
	key := PlacementKey(src, server.SessionSpec{})
	preferred, ok := fl.rt.pickReplica(key, nil)
	if !ok {
		t.Fatal("no placement")
	}
	fl.mgrs[preferred.Name].BeginDrain()

	_, resp := createSession(t, fl.router.URL, src, server.SessionSpec{})
	if resp.Replica == preferred.Name {
		t.Fatalf("session placed on draining replica %s", preferred.Name)
	}
}

func TestRouterReadyz(t *testing.T) {
	fl := newTestFleet(t, "r1")
	if status := doJSON(t, "GET", fl.router.URL+"/readyz", nil, nil); status != http.StatusOK {
		t.Fatalf("readyz with a ready replica: %d", status)
	}
	if _, _, err := fl.rt.DrainReplica("r1"); err != nil {
		t.Fatal(err)
	}
	if status := doJSON(t, "GET", fl.router.URL+"/readyz", nil, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no ready replica: %d, want 503", status)
	}
}

// --- live migration --------------------------------------------------------

// TestMigrationScalarBitIdentical is the cross-process correctness property
// this package exists to uphold: a traced scalar session stepped N cycles,
// live-migrated to another replica, and stepped M more must be bit-identical
// — state image, stat counters, waveform bytes — to the same N+M cycles run
// uninterrupted.
func TestMigrationScalarBitIdentical(t *testing.T) {
	fl := newTestFleet(t, "r1", "r2", "r3")
	src := readDesign(t, "counter.fir")
	spec := server.SessionSpec{TraceLanes: []int{0}}

	phase1 := []server.Op{{Op: "poke", Name: "en", Value: "1"}, {Op: "step", N: 10}}
	phase2 := []server.Op{{Op: "step", N: 7}, {Op: "peek", Name: "out"}}

	// Uninterrupted reference.
	ref, _ := createSession(t, refServer(t), src, spec)
	ref.ops(phase1...)
	refPeek := ref.ops(phase2...)[1].Value
	refBlob, refCycles := ref.snapshotLane(0)
	refVCD := ref.vcd(0)

	// Migrated run: identical trajectory, interrupted by a drain of its home.
	mig, created := createSession(t, fl.router.URL, src, spec)
	mig.ops(phase1...)
	oldHome := created.Replica
	migrated, failed, err := fl.rt.DrainReplica(oldHome)
	if err != nil || migrated != 1 || len(failed) != 0 {
		t.Fatalf("drain %s: migrated=%d failed=%v err=%v", oldHome, migrated, failed, err)
	}
	newHome := fl.home(mig.id)
	if newHome == oldHome {
		t.Fatalf("session still homed on drained replica %s", oldHome)
	}
	if n := fl.mgrs[oldHome].SessionCount(); n != 0 {
		t.Fatalf("drained replica still holds %d sessions", n)
	}
	migPeek := mig.ops(phase2...)[1].Value
	migBlob, migCycles := mig.snapshotLane(0)
	migVCD := mig.vcd(0)

	if migPeek != refPeek {
		t.Fatalf("peek after migration: %s, reference %s", migPeek, refPeek)
	}
	if migCycles != refCycles {
		t.Fatalf("cycles after migration: %d, reference %d", migCycles, refCycles)
	}
	if !bytes.Equal(migBlob, refBlob) {
		t.Fatalf("state snapshot differs after migration (%d vs %d bytes)", len(migBlob), len(refBlob))
	}
	if !bytes.Equal(migVCD, refVCD) {
		t.Fatalf("VCD differs after migration:\n--- migrated (%d bytes)\n%s\n--- reference (%d bytes)\n%s",
			len(migVCD), migVCD, len(refVCD), refVCD)
	}
}

// TestMigrationNoNodes: a design with no node to evaluate has a partition
// with no supernode, whose snapshot names the empty partition's
// fingerprint. A drain must still move its session, state and cycle count
// intact.
func TestMigrationNoNodes(t *testing.T) {
	fl := newTestFleet(t, "r1", "r2")
	src := "circuit I :\n  module I :\n    input clock : Clock\n    input a : UInt<8>\n"
	s, created := createSession(t, fl.router.URL, src, server.SessionSpec{})
	s.ops(server.Op{Op: "poke", Name: "a", Value: "5"}, server.Op{Op: "step", N: 3})
	migrated, failed, err := fl.rt.DrainReplica(created.Replica)
	if err != nil || migrated != 1 || len(failed) != 0 {
		t.Fatalf("drain %s: migrated=%d failed=%v err=%v", created.Replica, migrated, failed, err)
	}
	if home := fl.home(s.id); home == created.Replica {
		t.Fatalf("session still homed on drained replica %s", home)
	}
	res := s.ops(server.Op{Op: "step", N: 2}, server.Op{Op: "peek", Name: "a"})
	if res[1].Value != "8'h5" {
		t.Fatalf("peek after migration: a = %s, want 8'h5", res[1].Value)
	}
	if _, cycles := s.snapshotLane(0); cycles != 5 {
		t.Fatalf("cycles after migration: %d, want 5", cycles)
	}
}

// TestMigrationGangBitIdentical extends the property to gang sessions of
// both engine kinds: per-lane state, per-lane waveforms, and the park/wake
// live mask all survive the move.
func TestMigrationGangBitIdentical(t *testing.T) {
	for _, engineName := range []string{"gsim", "verilator"} {
		t.Run(engineName, func(t *testing.T) { migrationGangBitIdentical(t, engineName) })
	}
}

func migrationGangBitIdentical(t *testing.T, engineName string) {
	fl := newTestFleet(t, "r1", "r2", "r3")
	src := readDesign(t, "counter.fir")
	spec := server.SessionSpec{Engine: engineName, Lanes: 4, TraceLanes: []int{0, 2}}

	phase1 := []server.Op{
		{Op: "poke", Name: "en", Value: "1", Lane: lane(0)},
		{Op: "poke", Name: "en", Value: "1", Lane: lane(1)},
		{Op: "poke", Name: "en", Value: "1", Lane: lane(2)},
		{Op: "step", N: 3},
		{Op: "park", Lane: lane(1)},
		{Op: "step", N: 4},
	}
	phase2 := []server.Op{
		{Op: "step", N: 5},
		{Op: "wake", Lane: lane(1)},
		{Op: "step", N: 2},
		{Op: "peek", Name: "out", Lane: lane(0)},
		{Op: "peek", Name: "out", Lane: lane(1)},
		{Op: "peek", Name: "out", Lane: lane(3)},
	}

	run := func(s apiSession, migrateBetween func()) (peeks []string, blobs [][]byte, vcds [][]byte, infos []server.LaneInfo) {
		s.ops(phase1...)
		if migrateBetween != nil {
			migrateBetween()
		}
		res := s.ops(phase2...)
		for _, r := range res[len(res)-3:] {
			peeks = append(peeks, r.Value)
		}
		for l := 0; l < 4; l++ {
			blob, _ := s.snapshotLane(l)
			blobs = append(blobs, blob)
		}
		return peeks, blobs, [][]byte{s.vcd(0), s.vcd(2)}, s.laneInfos()
	}

	ref, _ := createSession(t, refServer(t), src, spec)
	refPeeks, refBlobs, refVCDs, refInfos := run(ref, nil)

	mig, created := createSession(t, fl.router.URL, src, spec)
	migPeeks, migBlobs, migVCDs, migInfos := run(mig, func() {
		migrated, failed, err := fl.rt.DrainReplica(created.Replica)
		if err != nil || migrated != 1 || len(failed) != 0 {
			t.Fatalf("drain: migrated=%d failed=%v err=%v", migrated, failed, err)
		}
		// The park mask must survive the move itself (not just the final
		// state): lane 1 was parked when its home drained.
		for _, li := range mig.laneInfos() {
			if li.Lane == 1 && li.Live {
				t.Fatal("parked lane woke up across migration")
			}
		}
	})

	for i := range refPeeks {
		if migPeeks[i] != refPeeks[i] {
			t.Fatalf("peek %d: migrated %s, reference %s", i, migPeeks[i], refPeeks[i])
		}
	}
	for l := range refBlobs {
		if !bytes.Equal(migBlobs[l], refBlobs[l]) {
			t.Fatalf("lane %d state snapshot differs after migration", l)
		}
	}
	for i := range refVCDs {
		if !bytes.Equal(migVCDs[i], refVCDs[i]) {
			t.Fatalf("traced lane %d VCD differs after migration:\n--- migrated\n%s\n--- reference\n%s",
				[]int{0, 2}[i], migVCDs[i], refVCDs[i])
		}
	}
	for l := range refInfos {
		if migInfos[l].Live != refInfos[l].Live || migInfos[l].Cycles != refInfos[l].Cycles {
			t.Fatalf("lane %d info diverged: migrated %+v, reference %+v", l, migInfos[l], refInfos[l])
		}
	}
}

// TestMigrationFaultpoints: a migration whose target refuses a lane restore
// (fleet-restore-fail), or whose handoff blob rots in the store before the
// restore (handoff-corrupt), fails whole. It is counted failed, the
// half-built target session is closed, the handoff pins are released, and
// the session keeps serving from its old home on a trajectory and waveform
// bit-identical to an undisturbed run. Once the fault clears, the same
// session migrates.
func TestMigrationFaultpoints(t *testing.T) {
	for _, fp := range []string{faultpoint.FleetRestoreFail, faultpoint.HandoffCorrupt} {
		t.Run(fp, func(t *testing.T) {
			defer faultpoint.Reset()
			fl := newTestFleet(t, "r1", "r2", "r3")
			src := readDesign(t, "counter.fir")
			spec := server.SessionSpec{Lanes: 3, TraceLanes: []int{1}}
			phase1 := []server.Op{
				{Op: "poke", Name: "en", Value: "1", Lane: lane(0)},
				{Op: "poke", Name: "en", Value: "1", Lane: lane(1)},
				{Op: "step", N: 5},
				{Op: "park", Lane: lane(2)},
				{Op: "step", N: 3},
			}
			phase2 := []server.Op{
				{Op: "step", N: 4},
				{Op: "wake", Lane: lane(2)},
				{Op: "step", N: 2},
				{Op: "peek", Name: "out", Lane: lane(1)},
			}
			finish := func(s apiSession) (peek string, blobs [][]byte, vcd []byte) {
				peek = s.ops(phase2...)[3].Value
				for l := 0; l < 3; l++ {
					blob, _ := s.snapshotLane(l)
					blobs = append(blobs, blob)
				}
				return peek, blobs, s.vcd(1)
			}

			ref, _ := createSession(t, refServer(t), src, spec)
			ref.ops(phase1...)
			refPeek, refBlobs, refVCD := finish(ref)

			s, created := createSession(t, fl.router.URL, src, spec)
			s.ops(phase1...)
			pinned := fl.rt.store.PinnedBytes() // the session's pinned source
			faultpoint.Arm(fp, 1)
			migrated, failed, err := fl.rt.DrainReplica(created.Replica)
			if err != nil || migrated != 0 || len(failed) != 1 || failed[0] != s.id {
				t.Fatalf("drain: migrated=%d failed=%v err=%v, want the one session failed", migrated, failed, err)
			}
			if n := faultpoint.Fired(fp); n != 1 {
				t.Fatalf("%s fired %d times", fp, n)
			}
			if home := fl.home(s.id); home != created.Replica {
				t.Fatalf("failed migration moved the session to %s", home)
			}
			for name, mgr := range fl.mgrs {
				if name != created.Replica && mgr.SessionCount() != 0 {
					t.Fatalf("half-built target session left on %s", name)
				}
			}
			if got := fl.rt.store.PinnedBytes(); got != pinned {
				t.Fatalf("handoff store pins %d bytes after the failed move, %d before it", got, pinned)
			}
			var stats FleetStats
			if doJSON(t, "GET", fl.router.URL+"/v1/stats", nil, &stats) != http.StatusOK || stats.MigrationsFail != 1 || stats.Migrated != 0 {
				t.Fatalf("migration accounting: %+v", stats)
			}

			peek, blobs, vcd := finish(s)
			if peek != refPeek {
				t.Fatalf("peek on the old home: %s, reference %s", peek, refPeek)
			}
			for l := range refBlobs {
				if !bytes.Equal(blobs[l], refBlobs[l]) {
					t.Fatalf("lane %d state snapshot differs from the undisturbed run", l)
				}
			}
			if !bytes.Equal(vcd, refVCD) {
				t.Fatalf("VCD differs from the undisturbed run:\n--- faulted\n%s\n--- reference\n%s", vcd, refVCD)
			}

			if migrated, failed, err := fl.rt.DrainReplica(created.Replica); err != nil || migrated != 1 || len(failed) != 0 {
				t.Fatalf("drain after the fault: migrated=%d failed=%v err=%v", migrated, failed, err)
			}
			if doJSON(t, "DELETE", fl.router.URL+"/v1/sessions/"+s.id, nil, nil) != http.StatusOK {
				t.Fatal("delete failed")
			}
			if got := fl.rt.store.PinnedBytes(); got != 0 {
				t.Fatalf("handoff store still pins %d bytes with no session left", got)
			}
		})
	}
}

// TestMigrationRace: the chosen migration target begins draining between
// ring resolution and the create. The orchestrator must absorb the 503,
// exclude the target, and land on the third replica.
func TestMigrationRace(t *testing.T) {
	fl := newTestFleet(t, "r1", "r2", "r3")
	src := readDesign(t, "counter.fir")

	s, created := createSession(t, fl.router.URL, src, server.SessionSpec{})
	s.ops(server.Op{Op: "poke", Name: "en", Value: "1"}, server.Op{Op: "step", N: 6})

	key := PlacementKey(src, server.SessionSpec{})
	target, ok := fl.rt.pickReplica(key, map[string]bool{created.Replica: true})
	if !ok {
		t.Fatal("no migration target")
	}
	// The race: the preferred target starts its own drain, but the router's
	// registry still believes it is ready.
	fl.mgrs[target.Name].BeginDrain()

	migrated, failed, err := fl.rt.DrainReplica(created.Replica)
	if err != nil || migrated != 1 || len(failed) != 0 {
		t.Fatalf("drain: migrated=%d failed=%v err=%v", migrated, failed, err)
	}
	newHome := fl.home(s.id)
	if newHome == created.Replica || newHome == target.Name {
		t.Fatalf("session landed on %s; both %s (drained) and %s (racing) should be excluded",
			newHome, created.Replica, target.Name)
	}
	if got := s.ops(server.Op{Op: "step", N: 4}, server.Op{Op: "peek", Name: "out"})[1].Value; got != "8'h9" {
		t.Fatalf("post-race trajectory: out = %s, want 8'h9", got)
	}
}

// TestMigrationNoTarget: draining the only replica cannot move its sessions
// anywhere. The drain must report the failure and leave the session intact
// and serving on its (still-alive, still-draining) home rather than destroy
// it.
func TestMigrationNoTarget(t *testing.T) {
	fl := newTestFleet(t, "r1")
	s, _ := createSession(t, fl.router.URL, readDesign(t, "counter.fir"), server.SessionSpec{})
	s.ops(server.Op{Op: "poke", Name: "en", Value: "1"}, server.Op{Op: "step", N: 3})

	migrated, failed, err := fl.rt.DrainReplica("r1")
	if err != nil || migrated != 0 || len(failed) != 1 || failed[0] != s.id {
		t.Fatalf("drain of only replica: migrated=%d failed=%v err=%v", migrated, failed, err)
	}
	if got := s.ops(server.Op{Op: "peek", Name: "out"})[0].Value; got != "8'h2" {
		t.Fatalf("session damaged by failed migration: out = %s", got)
	}
}

// TestDrainReinstateBounce: the planned-maintenance cycle. Drain moves
// everything off; Reinstate refuses while the replica-level drain is still
// in effect (its manager refuses creates), and a fresh process registering
// under the same name returns the slot to rotation.
func TestDrainReinstateBounce(t *testing.T) {
	fl := newTestFleet(t, "r1", "r2")
	src := readDesign(t, "counter.fir")
	s, created := createSession(t, fl.router.URL, src, server.SessionSpec{})
	s.ops(server.Op{Op: "step", N: 2})

	if _, failed, err := fl.rt.DrainReplica(created.Replica); err != nil || len(failed) != 0 {
		t.Fatalf("drain: failed=%v err=%v", failed, err)
	}
	if err := fl.rt.Reinstate(created.Replica); err == nil {
		t.Fatal("Reinstate succeeded while the replica itself is still draining")
	}

	// "Process restart": a fresh manager takes over the slot.
	old := fl.reps[created.Replica]
	_ = fl.mgrs[created.Replica].Drain(context.Background())
	old.Close()
	mgr := server.NewManager()
	ts := httptest.NewServer(mgr.Handler())
	fl.mgrs[created.Replica] = mgr
	fl.reps[created.Replica] = ts
	fl.rt.Register(created.Replica, ts.URL)

	if err := fl.rt.Reinstate(created.Replica); err != nil {
		t.Fatalf("Reinstate after restart: %v", err)
	}
	// The migrated session kept working through all of it.
	if got := s.ops(server.Op{Op: "peek", Name: "out"})[0].Value; got != "8'h0" {
		t.Fatalf("session lost across bounce: out = %s", got)
	}
}

// TestConcurrentOpsDuringMigration: proxied traffic racing a drain must
// never observe a half-moved session — every op lands either before the
// snapshot or after the restore, and the final count proves none was lost
// or doubled.
func TestConcurrentOpsDuringMigration(t *testing.T) {
	fl := newTestFleet(t, "r1", "r2", "r3")
	src := readDesign(t, "counter.fir")
	s, created := createSession(t, fl.router.URL, src, server.SessionSpec{})
	s.ops(server.Op{Op: "poke", Name: "en", Value: "1"})

	const steps = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < steps; i++ {
			s.ops(server.Op{Op: "step", N: 1})
		}
	}()
	time.Sleep(2 * time.Millisecond) // let some ops land pre-drain
	if _, failed, err := fl.rt.DrainReplica(created.Replica); err != nil || len(failed) != 0 {
		t.Fatalf("drain under load: failed=%v err=%v", failed, err)
	}
	<-done

	if got := s.ops(server.Op{Op: "peek", Name: "out"})[0].Value; got != fmt.Sprintf("8'h%x", steps-1) {
		t.Fatalf("ops lost or doubled across migration: out = %s, want 8'h%x", got, steps-1)
	}
}
