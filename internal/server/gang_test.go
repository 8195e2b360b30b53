package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func intp(v int) *int { return &v }

func decodeInto(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestGangSessionHTTP drives a 4-lane gang session and 4 scalar sessions of
// the same design over the HTTP API with identical per-lane stimulus, and
// requires the gang to be indistinguishable lane-for-lane: same peeks, same
// snapshot bytes, same waveform bytes — while all five sessions share one
// compiled design (lanes are not a compile knob). A lane is a scalar engine
// of the spec's kind, so this holds for both kinds.
func TestGangSessionHTTP(t *testing.T) {
	for _, engineName := range []string{"gsim", "verilator"} {
		t.Run(engineName, func(t *testing.T) { gangSessionHTTP(t, engineName) })
	}
}

func gangSessionHTTP(t *testing.T, engineName string) {
	m := NewManager()
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	defer m.Drain(context.Background())

	src := readDesign(t, "counter.fir")
	const k = 4
	const cycles = 12
	spec := SessionSpec{Engine: engineName}

	var gangCreated CreateResponse
	gangSpec := spec
	gangSpec.Lanes = k
	gangSpec.TraceLanes = []int{0, 1, 2, 3}
	resp := postJSON(t, ts.URL+"/v1/sessions", CreateRequest{FIRRTL: src, SessionSpec: gangSpec}, &gangCreated)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("gang create status %d", resp.StatusCode)
	}
	gangBase := ts.URL + "/v1/sessions/" + gangCreated.Session

	scalarBase := make([]string, k)
	for l := 0; l < k; l++ {
		var created CreateResponse
		scalarSpec := spec
		scalarSpec.TraceLanes = []int{0}
		postJSON(t, ts.URL+"/v1/sessions", CreateRequest{FIRRTL: src, SessionSpec: scalarSpec}, &created)
		if !created.CacheHit {
			t.Fatalf("scalar twin %d missed the compile cache: lanes must not fork the cache key", l)
		}
		if created.DesignHash != gangCreated.DesignHash {
			t.Fatalf("scalar twin %d hash %s != gang hash %s", l, created.DesignHash, gangCreated.DesignHash)
		}
		scalarBase[l] = ts.URL + "/v1/sessions/" + created.Session
	}

	// Per-lane stimulus: lanes 0 and 2 count, lanes 1 and 3 hold.
	enOf := func(l int) string { return fmt.Sprint(1 - l%2) }
	for c := 0; c < cycles; c++ {
		var gops OpsRequest
		for l := 0; l < k; l++ {
			gops.Ops = append(gops.Ops, Op{Op: "poke", Name: "en", Value: enOf(l), Lane: intp(l)})
		}
		gops.Ops = append(gops.Ops, Op{Op: "step"})
		for l := 0; l < k; l++ {
			gops.Ops = append(gops.Ops, Op{Op: "peek", Name: "out", Lane: intp(l)})
		}
		var gres OpsResponse
		if resp := postJSON(t, gangBase+"/ops", gops, &gres); resp.StatusCode != http.StatusOK {
			t.Fatalf("cycle %d: gang ops status %d", c, resp.StatusCode)
		}
		for l := 0; l < k; l++ {
			var sres OpsResponse
			postJSON(t, scalarBase[l]+"/ops", OpsRequest{Ops: []Op{
				{Op: "poke", Name: "en", Value: enOf(l)},
				{Op: "step"},
				{Op: "peek", Name: "out"},
			}}, &sres)
			gv, sv := gres.Results[k+1+l].Value, sres.Results[2].Value
			if gv != sv {
				t.Fatalf("cycle %d lane %d: gang out=%s, scalar twin out=%s", c, l, gv, sv)
			}
		}
	}

	// Lane snapshots must be byte-identical to the scalar twins' snapshots —
	// one blob format, interchangeable across shapes.
	for l := 0; l < k; l++ {
		var gsnap, ssnap SnapshotResponse
		postJSON(t, fmt.Sprintf("%s/snapshot?lane=%d", gangBase, l), struct{}{}, &gsnap)
		postJSON(t, scalarBase[l]+"/snapshot", struct{}{}, &ssnap)
		if gsnap.Snapshot != ssnap.Snapshot {
			t.Fatalf("lane %d snapshot differs from scalar twin (%d vs %d bytes)", l, gsnap.Bytes, ssnap.Bytes)
		}
		if gsnap.Cycles != cycles {
			t.Fatalf("lane %d snapshot cycles = %d, want %d", l, gsnap.Cycles, cycles)
		}
	}

	// Waveforms too: per-lane VCD equals the scalar twin's VCD.
	for l := 0; l < k; l++ {
		var gvcd, svcd VCDResponse
		postGet := func(url string, out *VCDResponse) {
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("vcd fetch %s: status %d", url, resp.StatusCode)
			}
			decodeInto(t, resp, out)
		}
		postGet(fmt.Sprintf("%s/vcd?lane=%d", gangBase, l), &gvcd)
		postGet(scalarBase[l]+"/vcd", &svcd)
		if gvcd.VCD == "" || gvcd.VCD != svcd.VCD {
			t.Fatalf("lane %d VCD differs from scalar twin (%d vs %d bytes)", l, gvcd.Bytes, svcd.Bytes)
		}
	}

	// Park lane 1, step 5: parked lane freezes, live lanes advance, and the
	// lanes endpoint reports the divergence.
	var before, after OpsResponse
	postJSON(t, gangBase+"/ops", OpsRequest{Ops: []Op{{Op: "peek", Name: "out", Lane: intp(0)}, {Op: "peek", Name: "out", Lane: intp(1)}}}, &before)
	postJSON(t, gangBase+"/ops", OpsRequest{Ops: []Op{{Op: "park", Lane: intp(1)}, {Op: "step", N: 5}}}, &after)
	postJSON(t, gangBase+"/ops", OpsRequest{Ops: []Op{{Op: "peek", Name: "out", Lane: intp(0)}, {Op: "peek", Name: "out", Lane: intp(1)}}}, &after)
	if after.Results[0].Value == before.Results[0].Value {
		t.Fatal("live lane 0 did not advance")
	}
	if after.Results[1].Value != before.Results[1].Value {
		t.Fatal("parked lane 1 advanced")
	}
	resp, err := http.Get(gangBase + "/lanes")
	if err != nil {
		t.Fatal(err)
	}
	var lanes []LaneInfo
	decodeInto(t, resp, &lanes)
	resp.Body.Close()
	if len(lanes) != k || lanes[1].Live || !lanes[0].Live {
		t.Fatalf("lanes: %+v", lanes)
	}
	if lanes[0].Cycles != cycles+5 || lanes[1].Cycles != cycles {
		t.Fatalf("lane cycles: live=%d (want %d), parked=%d (want %d)",
			lanes[0].Cycles, cycles+5, lanes[1].Cycles, cycles)
	}

	// Wake lane 1 and restore lane 3's checkpoint into it: per-lane restore
	// rewinds one lane without touching the rest.
	var snap3 SnapshotResponse
	postJSON(t, gangBase+"/snapshot?lane=3", struct{}{}, &snap3)
	var ops OpsResponse
	postJSON(t, gangBase+"/ops", OpsRequest{Ops: []Op{{Op: "wake", Lane: intp(1)}}}, &ops)
	var restored RestoreResponse
	if resp := postJSON(t, gangBase+"/restore?lane=1", RestoreRequest{Snapshot: snap3.Snapshot}, &restored); resp.StatusCode != http.StatusOK {
		t.Fatalf("lane restore status %d", resp.StatusCode)
	}
	postJSON(t, gangBase+"/ops", OpsRequest{Ops: []Op{{Op: "peek", Name: "out", Lane: intp(1)}, {Op: "peek", Name: "out", Lane: intp(3)}}}, &ops)
	if ops.Results[0].Value != ops.Results[1].Value {
		t.Fatalf("restored lane 1 out=%s, checkpoint source lane 3 out=%s", ops.Results[0].Value, ops.Results[1].Value)
	}

	// Lane-op validation: step takes no lane, scalar sessions reject lanes.
	if resp := postJSON(t, gangBase+"/ops", OpsRequest{Ops: []Op{{Op: "step", Lane: intp(1)}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("step with lane: status %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, gangBase+"/ops", OpsRequest{Ops: []Op{{Op: "peek", Name: "out", Lane: intp(k)}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range lane: status %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, scalarBase[0]+"/ops", OpsRequest{Ops: []Op{{Op: "park", Lane: intp(0)}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("park on scalar session: status %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, scalarBase[0]+"/ops", OpsRequest{Ops: []Op{{Op: "reset", Lane: intp(5)}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reset of lane 5 on scalar session: status %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/sessions", CreateRequest{FIRRTL: src, SessionSpec: SessionSpec{Engine: engineName, Lanes: 65}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lanes=65: status %d, want 400", resp.StatusCode)
	}

	// One compile served all five sessions.
	if cs := m.CacheStats(); cs.Misses != 1 || cs.Designs != 1 {
		t.Fatalf("cache: misses=%d designs=%d, want 1/1", cs.Misses, cs.Designs)
	}
}

// TestBodyLimit413 is the regression test for unbounded request-body reads:
// every JSON endpoint must refuse an oversized body with 413 instead of
// buffering it into the heap.
func TestBodyLimit413(t *testing.T) {
	m := NewManagerLimits(Limits{MaxBodyBytes: 4096})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	defer m.Drain(context.Background())

	big := strings.Repeat("x", 8192)
	if resp := postJSON(t, ts.URL+"/v1/sessions", CreateRequest{FIRRTL: big}, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: status %d, want 413", resp.StatusCode)
	}

	var created CreateResponse
	postJSON(t, ts.URL+"/v1/sessions", CreateRequest{FIRRTL: readDesign(t, "counter.fir")}, &created)
	base := ts.URL + "/v1/sessions/" + created.Session
	if resp := postJSON(t, base+"/ops", OpsRequest{Ops: []Op{{Op: "poke", Name: "en", Value: big}}}, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ops: status %d, want 413", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/restore", RestoreRequest{Snapshot: big}, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized restore: status %d, want 413", resp.StatusCode)
	}

	// The session is unharmed by the refusals, and a fitting body still works.
	var ops OpsResponse
	if resp := postJSON(t, base+"/ops", OpsRequest{Ops: []Op{{Op: "step"}}}, &ops); resp.StatusCode != http.StatusOK {
		t.Fatalf("normal ops after 413s: status %d", resp.StatusCode)
	}

	if got := NewManager().Limits().MaxBodyBytes; got != DefaultMaxBodyBytes {
		t.Fatalf("default MaxBodyBytes = %d, want %d", got, DefaultMaxBodyBytes)
	}
	if got := NewManagerLimits(Limits{MaxBodyBytes: -1}).Limits().MaxBodyBytes; got != -1 {
		t.Fatalf("negative MaxBodyBytes resolved to %d, want -1 (unlimited)", got)
	}
}

// TestTinyIdleTimeoutReaper is the regression test for the reap-interval
// derivation: an IdleTimeout small enough that IdleTimeout/4 truncates to
// zero must not panic the ticker or busy-spin — the poll period clamps to a
// sane minimum and the reaper still works.
func TestTinyIdleTimeoutReaper(t *testing.T) {
	m := NewManagerLimits(Limits{IdleTimeout: 2 * time.Nanosecond})
	defer m.Drain(context.Background())
	if got := m.Limits().ReapInterval; got < minReapInterval {
		t.Fatalf("ReapInterval = %v, want >= %v", got, minReapInterval)
	}

	s, err := m.CreateSession(readDesign(t, "counter.fir"), SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	deadline := time.Now().Add(5 * time.Second)
	for m.SessionCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session not reaped within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// An explicit sub-minimum interval clamps too.
	m2 := NewManagerLimits(Limits{IdleTimeout: time.Hour, ReapInterval: time.Nanosecond})
	defer m2.Drain(context.Background())
	if got := m2.Limits().ReapInterval; got != minReapInterval {
		t.Fatalf("explicit tiny ReapInterval = %v, want clamp to %v", got, minReapInterval)
	}
}
