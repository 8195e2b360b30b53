package obs

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestTextEncodingGolden pins the exposition format byte-for-byte: family
// ordering, HELP/TYPE lines, label rendering, histogram expansion.
func TestTextEncodingGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gsim_test_ops_total", "Operations.", L("op", "step"))
	c.Add(41)
	c.Inc()
	r.Counter("gsim_test_ops_total", "Operations.", L("op", "poke")).Add(7)
	g := r.Gauge("gsim_test_sessions", "Live sessions.")
	g.Set(3)
	r.GaugeFunc("gsim_test_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	h := r.Histogram("gsim_test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP gsim_test_latency_seconds Latency.
# TYPE gsim_test_latency_seconds histogram
gsim_test_latency_seconds_bucket{le="0.1"} 1
gsim_test_latency_seconds_bucket{le="1"} 3
gsim_test_latency_seconds_bucket{le="+Inf"} 4
gsim_test_latency_seconds_sum 6.05
gsim_test_latency_seconds_count 4
# HELP gsim_test_ops_total Operations.
# TYPE gsim_test_ops_total counter
gsim_test_ops_total{op="poke"} 7
gsim_test_ops_total{op="step"} 42
# HELP gsim_test_sessions Live sessions.
# TYPE gsim_test_sessions gauge
gsim_test_sessions 3
# HELP gsim_test_uptime_seconds Uptime.
# TYPE gsim_test_uptime_seconds gauge
gsim_test_uptime_seconds 12.5
`
	if sb.String() != want {
		t.Errorf("encoding mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestHistogramBucketBoundaries pins le semantics: a sample exactly on an
// upper bound lands in that bucket (le is <=), one just above spills over.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("gsim_test_bounds", "Boundary test.", []float64{1, 2, 4})
	for _, v := range []float64{1, 2, 4, 1.0000001, 4.5, -3} {
		h.Observe(v)
	}
	cum, sum, count := h.snapshot()
	// -3 and 1 land in le=1; 1.0000001 and 2 in le=2; 4 in le=4; 4.5 in +Inf.
	wantCum := []uint64{2, 4, 5, 6}
	for i, w := range wantCum {
		if cum[i] != w {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if count != 6 {
		t.Errorf("count = %d, want 6", count)
	}
	if math.Abs(sum-9.5000001) > 1e-9 {
		t.Errorf("sum = %v, want 9.5000001", sum)
	}
}

// TestConcurrentIncrement hammers every metric type from many goroutines;
// run under -race this is the data-race proof, and the totals prove no lost
// updates.
func TestConcurrentIncrement(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gsim_test_conc_total", "c")
	g := r.Gauge("gsim_test_conc_gauge", "g")
	h := r.Histogram("gsim_test_conc_hist", "h", []float64{10, 100})
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

// TestRegistryCollision: identical re-registration is idempotent (same
// instance), conflicting respec panics.
func TestRegistryCollision(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("gsim_test_x_total", "help")
	b := r.Counter("gsim_test_x_total", "help")
	if a != b {
		t.Error("identical re-registration returned a different instance")
	}
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanics("type conflict", func() { r.Gauge("gsim_test_x_total", "help") })
	assertPanics("help conflict", func() { r.Counter("gsim_test_x_total", "other help") })
	assertPanics("bucket conflict", func() {
		r.Histogram("gsim_test_h", "h", []float64{1, 2})
		r.Histogram("gsim_test_h", "h", []float64{1, 3})
	})
	assertPanics("bad name", func() { r.Counter("Bad-Name", "x") })
}

// TestParseRoundTrip: what the encoder writes, the parser reads back.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("gsim_test_rt_total", "rt", L("kind", `quo"te`)).Add(5)
	r.Gauge("gsim_test_rt_gauge", "rt").Set(2.25)
	h := r.Histogram("gsim_test_rt_seconds", "rt", []float64{0.5})
	h.Observe(0.1)
	h.Observe(3)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("gsim_test_rt_total", "kind", `quo"te`); !ok || v != 5 {
		t.Errorf("counter round-trip: got %v ok=%v", v, ok)
	}
	if v, ok := sc.Value("gsim_test_rt_gauge"); !ok || v != 2.25 {
		t.Errorf("gauge round-trip: got %v ok=%v", v, ok)
	}
	if v, ok := sc.Value("gsim_test_rt_seconds_bucket", "le", "+Inf"); !ok || v != 2 {
		t.Errorf("bucket round-trip: got %v ok=%v", v, ok)
	}
	if v, ok := sc.Value("gsim_test_rt_seconds_count"); !ok || v != 2 {
		t.Errorf("count round-trip: got %v ok=%v", v, ok)
	}
}

// TestHistogramDeltaQuantile checks the scrape-diff quantile estimate
// gsim-diag -live relies on.
func TestHistogramDeltaQuantile(t *testing.T) {
	mk := func(observe []float64) string {
		r := NewRegistry()
		h := r.Histogram("gsim_test_q_seconds", "q", []float64{0.01, 0.1, 1})
		for _, v := range observe {
			h.Observe(v)
		}
		var sb strings.Builder
		if _, err := r.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, err := ParseText(strings.NewReader(mk(nil)))
	if err != nil {
		t.Fatal(err)
	}
	// 100 observations uniformly inside (0.01, 0.1].
	obsVals := make([]float64, 100)
	for i := range obsVals {
		obsVals[i] = 0.05
	}
	b, err := ParseText(strings.NewReader(mk(obsVals)))
	if err != nil {
		t.Fatal(err)
	}
	deltas := HistogramDelta(a, b, "gsim_test_q_seconds")
	if deltas == nil {
		t.Fatal("no deltas")
	}
	p50 := Quantile(0.5, deltas)
	if p50 < 0.01 || p50 > 0.1 {
		t.Errorf("p50 = %v, want within (0.01, 0.1]", p50)
	}
	if q := Quantile(0.5, nil); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

// TestProcessMetrics checks the Go-runtime series: the allocation and GC
// totals are typed as counters, every scrape takes a fresh reading (work done
// between two scrapes shows in the second), and the totals never run
// backwards.
func TestProcessMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterProcessMetrics(r)
	RegisterProcessMetrics(r) // idempotent
	scrape := func() (*Scrape, string) {
		var sb strings.Builder
		if _, err := r.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		sc, err := ParseText(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		return sc, sb.String()
	}
	value := func(sc *Scrape, name string) float64 {
		v, ok := sc.Value(name)
		if !ok {
			t.Fatalf("series %s missing", name)
		}
		return v
	}

	a, text := scrape()
	for _, line := range []string{
		"# TYPE gsim_go_alloc_bytes_total counter",
		"# TYPE gsim_go_gc_cycles_total counter",
		"# TYPE gsim_go_heap_alloc_bytes gauge",
		"# TYPE gsim_go_goroutines gauge",
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition lacks %q", line)
		}
	}
	if heap, total := value(a, "gsim_go_heap_alloc_bytes"), value(a, "gsim_go_alloc_bytes_total"); heap <= 0 || total < heap {
		t.Errorf("heap %v bytes live of %v ever allocated", heap, total)
	}

	const churn = 4 << 20
	for range 4 {
		processSink = make([]byte, churn/4)
	}
	runtime.GC()
	b, _ := scrape()
	if d := value(b, "gsim_go_alloc_bytes_total") - value(a, "gsim_go_alloc_bytes_total"); d < churn {
		t.Errorf("alloc_bytes_total grew by %v across %d bytes of allocation", d, churn)
	}
	if d := value(b, "gsim_go_gc_cycles_total") - value(a, "gsim_go_gc_cycles_total"); d < 1 {
		t.Errorf("gc_cycles_total grew by %v across a forced collection", d)
	}
}

// processSink keeps TestProcessMetrics' allocations on the heap.
var processSink []byte
