package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"gsim/internal/faultpoint"
)

// The self-test runs every workload at -scale tiny. It checks the contract
// (names, counts, output shape, determinism), not the numbers.

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json equal to the tables the
// program reports from, and inside the limits of the benchmark contract.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if m.RunSeconds != baseSeconds {
		t.Errorf("run_seconds %d, the scale table is computed for %d", m.RunSeconds, baseSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) || !reflect.DeepEqual(m.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("paths %v command %v", m.Paths, m.Command)
	}
	if len(m.Workloads) != len(workloads) || len(m.Workloads) > 8 {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q / program %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %q breaks the naming rules", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []manifestMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d in the manifest, %d in the program, limit %d", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %q breaks the naming rules", kind, g.Name)
			}
			seen[g.Name] = true
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s %q: better %q", kind, g.Name, g.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q carries a bound", kind, g.Name)
			case bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > maxBound):
				t.Errorf("%s %q: bound %v, program %v, limit %v", kind, g.Name, g.Bound, w.bound, maxBound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16, true)
	check("per_layer", m.PerLayer, perLayer, 128, false)
	if s := endToEnd[0]; s.name != "setup_s" || s.unit != "s" || s.better != "lower" {
		t.Errorf("setup_s must lead the end-to-end table as s/lower, have %+v", s)
	}
	for _, d := range endToEnd[1:] {
		if d.bound > endToEnd[0].bound {
			t.Errorf("%s has a wider bound than setup_s", d.name)
		}
	}
}

// maxBound is the widest bound the benchmark contract accepts. README.md,
// "Bounds", says why three bounds are wider than the caps of the issue that
// specified the benchmark.
const maxBound = 0.25

func tinyRun(t *testing.T, w workload, seed int64, traced bool) *report {
	t.Helper()
	r, err := runWorkload(w, tinyScale(), seed, traced, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return r
}

// TestTinyRuns: every workload reports every metric of its table exactly
// once, passes its correctness gate, repeats its digest and counts for one
// seed, and changes its digest with the seed.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, other := tinyRun(t, w, 1, false), tinyRun(t, w, 1, false), tinyRun(t, w, 2, false)
			traced := tinyRun(t, w, 1, true)
			for _, r := range []*report{a, b, other, traced} {
				if !r.correct() || r.attempted < 1 || r.failed != 0 {
					t.Errorf("seed %d traced %v: attempted %d failed %d problems %v", r.Seed, r.Trace, r.attempted, r.failed, r.Problems)
				}
				if len(r.metrics) != len(r.defs) {
					t.Errorf("%d metrics reported, table has %d", len(r.metrics), len(r.defs))
				}
				for _, d := range r.defs {
					if v, ok := r.metrics[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) {
						t.Errorf("metric %s: %+v", d.name, v)
					}
				}
			}
			for _, d := range endToEnd {
				if a.metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, must never be 0", d.name, a.metrics[d.name].Value)
				}
			}
			if a.Digest != b.Digest || !reflect.DeepEqual(a.Counts, b.Counts) || a.attempted != b.attempted {
				t.Errorf("same seed, different runs: %s/%v/%d vs %s/%v/%d", a.Digest, a.Counts, a.attempted, b.Digest, b.Counts, b.attempted)
			}
			if a.Digest == other.Digest {
				t.Errorf("seeds 1 and 2 share digest %s", a.Digest)
			}
			if v := traced.metrics["fleet.sessions_lost"].Value; v != 0 {
				t.Errorf("fleet.sessions_lost = %v", v)
			}
			if v := traced.metrics["fleet.hop_tax_us"].Value; v <= 0 {
				t.Errorf("fleet.hop_tax_us = %v, the router hop cannot be free", v)
			}
			if w.name == "rocket-fullcycle" {
				for _, n := range []string{"engine.activations_per_cycle", "engine.examinations_per_cycle"} {
					if v := traced.metrics[n].Value; v != 0 {
						t.Errorf("%s = %v on the full-cycle engine", n, v)
					}
				}
			}

			// The output shape the driver parses: two lines, the last with
			// exactly the four contract keys.
			var out bytes.Buffer
			if err := a.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if len(lines) != 2 || json.Unmarshal([]byte(lines[1]), &last) != nil {
				t.Fatalf("stdout: %q", out.String())
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := last[k]; !ok {
					t.Errorf("result line lacks %q", k)
				}
			}
			if len(last) != 4 {
				t.Errorf("result line has %d keys, want 4", len(last))
			}
		})
	}
}

// TestFailedOpsAreCounted arms a panic inside the server's step loop: the
// poisoned session answers 500 from then on, and every such request must
// show up in ops_failed and fail the correctness gate — not drop out of the
// sample.
func TestFailedOpsAreCounted(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Arm(faultpoint.StepPanic, 1)
	w, err := findWorkload("serve-sessions")
	if err != nil {
		t.Fatal(err)
	}
	r := tinyRun(t, w, 1, false)
	if faultpoint.Fired(faultpoint.StepPanic) != 1 {
		t.Fatal("the fault point never fired")
	}
	if r.failed == 0 || r.correct() || r.failed >= r.attempted {
		t.Errorf("attempted %d failed %d correct %v", r.attempted, r.failed, r.correct())
	}
	var out bytes.Buffer
	if err := r.print(&out); err != nil || !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result line: %v %s", err, out.String())
	}
}

// TestEstimators: disturbed segments, even nearly half of them, move neither
// the fast quartile of a rate nor that of per-segment percentiles; a failed op
// counts against every percentile it reaches.
func TestEstimators(t *testing.T) {
	khz := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100, 100}
	quiet := fastRate(khz)
	poisoned := append([]float64(nil), khz...)
	for _, i := range []int{0, 3, 4, 7, 9} { // almost half the run beside a noisy neighbour
		poisoned[i] *= 0.7
	}
	if got := fastRate(poisoned); math.Abs(got-quiet) > 1.5 {
		t.Errorf("fast quartile of the rate %v -> %v with 5 of 11 segments slowed by 30%%", quiet, got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if got := quantile([]float64{4, 1, 3, 2, 5}, 0.25); got != 2 {
		t.Errorf("lower quartile %v", got)
	}
	if got := quantile([]float64{1, 2, math.Inf(1), math.Inf(1)}, 0.5); got != 2 {
		t.Errorf("a quantile beside a failed op must stay a sample value, got %v", got)
	}

	segs := make([][]float64, 11)
	for s := range segs {
		for i := 1; i <= 100; i++ {
			segs[s] = append(segs[s], float64(i))
		}
	}
	if p := segmentPercentile(segs, 95); p != 95 {
		t.Errorf("p95 %v", p)
	}
	for _, s := range []int{1, 2, 5, 7, 8} {
		for i := range segs[s] {
			segs[s][i] *= 50
		}
	}
	if p50, p95 := segmentPercentile(segs, 50), segmentPercentile(segs, 95); p50 != 50 || p95 != 95 {
		t.Errorf("5 poisoned segments of 11 moved p50/p95 to %v/%v", p50, p95)
	}

	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = 1
	}
	lat[10], lat[20], lat[30], lat[40], lat[50], lat[60] = math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
	if p50, p95 := percentile(lat, 50), percentile(lat, 95); p50 != 1 || !math.IsInf(p95, 1) {
		t.Errorf("6 failed ops of 100: p50 %v p95 %v", p50, p95)
	}

	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	if q1, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22}); q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles %v %v", q1, q3)
	}
}

// TestHostSpeedScaling: a host that runs everything a quarter slower — the
// reference loop included — reports the same timed metrics, and the detail
// line keeps what the clock read.
func TestHostSpeedScaling(t *testing.T) {
	run := func(slow float64) *report {
		m := samples{
			setupS: []float64{2 * slow, 2.2 * slow, 2.1 * slow},
			khz:    []float64{10 / slow, 9.5 / slow, 9.9 / slow, 10.1 / slow},
			lats:   [][]float64{{0.001 * slow, 0.002 * slow, 0.003 * slow}, {0.001 * slow, 0.002 * slow, 0.003 * slow}},
			spinS:  []float64{spinNominal * slow, spinNominal * slow * 1.5, spinNominal * slow},
		}
		r := newReport("x", 1, false)
		m.report(r)
		return r
	}
	quiet, slow := run(1), run(1.25)
	for _, name := range []string{"setup_s", "sim_khz", "op_p50_ms"} {
		q, s := quiet.metrics[name].Value, slow.metrics[name].Value
		if math.Abs(s-q) > 1e-9*q {
			t.Errorf("%s: %v on the nominal host, %v on one a quarter slower", name, q, s)
		}
		if raw := slow.Raw[name]; math.Abs(raw-q) < 0.1*q {
			t.Errorf("%s: the slow host's clocked value %v should differ from the scaled %v", name, raw, q)
		}
	}
	if math.Abs(slow.HostSpeed-0.8) > 1e-9 || math.Abs(quiet.metrics["op_p50_ms"].Value-2) > 1e-9 {
		t.Errorf("host speed %v, op_p50_ms %v", slow.HostSpeed, quiet.metrics["op_p50_ms"].Value)
	}
}

func TestSpanSelfTime(t *testing.T) {
	rec := &spanRecorder{t0: time.Now()}
	rec.spans = []span{
		{Name: "op", Op: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "engine.step", Op: 0, Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "engine.step", Op: 0, Parent: 0, StartNS: 50, EndNS: 90},
	}
	self, count := rec.selfTimes()
	if self["op"] != 30 || self["engine.step"] != 70 || count["engine.step"] != 2 {
		t.Errorf("self %v count %v", self, count)
	}
	var none *spanRecorder
	none.end(none.begin("x", 0, -1)) // the untraced run's path: must not record or crash
}
