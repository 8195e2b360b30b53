// Live diagnosis: scrape a running service's /metrics twice, diff the two
// scrapes, and render the window as rates and quantiles — the operator's
// "what is this replica doing right now" view, built on the same exposition
// parser the tests use (internal/obs.ParseText).
package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"gsim/internal/obs"
)

// runLive renders a rate report for the service at base (a gsim-serve or
// gsim-router URL): two /metrics scrapes interval apart, then every section
// whose metric family is present in the payload. Router scrapes show the
// fleet section; replica scrapes show engine/server/cache; a scrape of a
// router that also re-exports process metrics shows both.
func runLive(w io.Writer, base string, interval time.Duration) error {
	url := strings.TrimSuffix(base, "/")
	if !strings.HasSuffix(url, "/metrics") {
		url += "/metrics"
	}
	a, err := scrapeMetrics(url)
	if err != nil {
		return err
	}
	start := time.Now()
	time.Sleep(interval)
	b, err := scrapeMetrics(url)
	if err != nil {
		return err
	}
	dt := time.Since(start).Seconds()
	if dt <= 0 {
		return fmt.Errorf("degenerate scrape window %v", interval)
	}

	fmt.Fprintf(w, "== live: %s (window %.1fs) ==\n", url, dt)
	d := &window{a: a, b: b, dt: dt}
	renderEngine(w, d)
	renderServer(w, d)
	renderCache(w, d)
	renderFleet(w, d)
	renderProcess(w, d)
	return nil
}

func scrapeMetrics(url string) (*obs.Scrape, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("scrape %s: HTTP %d", url, resp.StatusCode)
	}
	sc, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return sc, nil
}

// window is two scrapes and the wall-clock seconds between them.
type window struct {
	a, b *obs.Scrape
	dt   float64
}

// delta is the counter increase over the window (clamped at zero: a restart
// between scrapes reads as no progress, not a negative rate).
func (d *window) delta(name string, kv ...string) (float64, bool) {
	va, oka := d.a.Value(name, kv...)
	vb, okb := d.b.Value(name, kv...)
	if !oka || !okb {
		return 0, false
	}
	if vb < va {
		return 0, true
	}
	return vb - va, true
}

// rate is the counter's per-second rate over the window.
func (d *window) rate(name string, kv ...string) (float64, bool) {
	dv, ok := d.delta(name, kv...)
	return dv / d.dt, ok
}

// gauge is the instantaneous value at the second scrape.
func (d *window) gauge(name string, kv ...string) (float64, bool) {
	return d.b.Value(name, kv...)
}

// quantiles estimates p50/p99 (in the histogram's native unit) over the
// window, plus the observation count. ok is false when the histogram is
// absent or saw nothing.
func (d *window) quantiles(name string, kv ...string) (p50, p99 float64, n uint64, ok bool) {
	buckets := obs.HistogramDelta(d.a, d.b, name, kv...)
	if buckets == nil {
		return 0, 0, 0, false
	}
	for _, bk := range buckets {
		n += bk.Count
	}
	if n == 0 {
		return 0, 0, 0, false
	}
	return obs.Quantile(0.50, buckets), obs.Quantile(0.99, buckets), n, true
}

func renderEngine(w io.Writer, d *window) {
	cyc, ok := d.rate("gsim_engine_cycles_total")
	if !ok {
		return
	}
	fmt.Fprintf(w, "\nengine\n")
	fmt.Fprintf(w, "  sim speed            %10.1f kHz\n", cyc/1e3)
	if sessions, ok := d.gauge("gsim_server_sessions"); ok && sessions > 0 {
		fmt.Fprintf(w, "  per-session          %10.1f kHz over %.0f sessions\n", cyc/sessions/1e3, sessions)
	}
	if evals, ok := d.rate("gsim_engine_node_evals_total"); ok {
		fmt.Fprintf(w, "  node evals           %10.2f M/s\n", evals/1e6)
	}
	if instrs, ok := d.rate("gsim_engine_instrs_total"); ok {
		fmt.Fprintf(w, "  kernel instrs        %10.2f M/s\n", instrs/1e6)
	}
	if af, ok := d.gauge("gsim_engine_active_ratio"); ok {
		fmt.Fprintf(w, "  activity factor      %10.4f\n", af)
	}
}

func renderServer(w io.Writer, d *window) {
	sessions, ok := d.gauge("gsim_server_sessions")
	if !ok {
		return
	}
	fmt.Fprintf(w, "\nserver\n")
	lanes, _ := d.gauge("gsim_server_gang_lanes_live")
	fmt.Fprintf(w, "  sessions             %10.0f (%.0f live gang lanes)\n", sessions, lanes)
	if reqs, ok := d.rate("gsim_server_http_requests_total"); ok {
		fmt.Fprintf(w, "  http requests        %10.1f /s\n", reqs)
	}
	if stepc, ok := d.rate("gsim_server_step_cycles_total"); ok {
		fmt.Fprintf(w, "  step lane-cycles     %10.1f k/s\n", stepc/1e3)
	}

	// Per-op rate and latency quantiles, one row per op kind seen in the
	// payload (labels carried by gsim_server_ops_total).
	kinds := labelValues(d.b, "gsim_server_ops_total", "op")
	for _, kind := range kinds {
		r, _ := d.rate("gsim_server_ops_total", "op", kind)
		if p50, p99, n, ok := d.quantiles("gsim_server_op_latency_seconds", "op", kind); ok {
			fmt.Fprintf(w, "  op %-6s            %10.1f /s   p50 %s  p99 %s  (n=%d)\n",
				kind, r, fmtLatency(p50), fmtLatency(p99), n)
		} else if r > 0 {
			fmt.Fprintf(w, "  op %-6s            %10.1f /s\n", kind, r)
		}
	}
	for _, cause := range labelValues(d.b, "gsim_server_admission_rejects_total", "cause") {
		if dv, ok := d.delta("gsim_server_admission_rejects_total", "cause", cause); ok && dv > 0 {
			fmt.Fprintf(w, "  rejects[%-13s] %8.0f in window\n", cause, dv)
		}
	}
}

func renderCache(w io.Writer, d *window) {
	hits, okH := d.delta("gsim_compile_cache_hits_total")
	misses, okM := d.delta("gsim_compile_cache_misses_total")
	if !okH || !okM {
		return
	}
	fmt.Fprintf(w, "\ncompile cache\n")
	if total := hits + misses; total > 0 {
		fmt.Fprintf(w, "  hit rate             %10.1f %% over %.0f lookups in window\n", 100*hits/total, total)
	} else {
		// No lookups in the window: fall back to lifetime totals.
		lh, _ := d.gauge("gsim_compile_cache_hits_total")
		lm, _ := d.gauge("gsim_compile_cache_misses_total")
		if lt := lh + lm; lt > 0 {
			fmt.Fprintf(w, "  hit rate             %10.1f %% lifetime (%.0f lookups, idle window)\n", 100*lh/lt, lt)
		} else {
			fmt.Fprintf(w, "  hit rate                    n/a (no lookups yet)\n")
		}
	}
	if designs, ok := d.gauge("gsim_compile_cache_designs"); ok {
		bytes, _ := d.gauge("gsim_compile_cache_resident_bytes")
		fmt.Fprintf(w, "  resident             %10.0f designs, %.1f MiB\n", designs, bytes/(1<<20))
	}
	if ev, ok := d.delta("gsim_compile_cache_evictions_total"); ok && ev > 0 {
		fmt.Fprintf(w, "  evictions            %10.0f in window\n", ev)
	}
	if p50, p99, n, ok := d.quantiles("gsim_compile_duration_seconds"); ok {
		fmt.Fprintf(w, "  compile latency      p50 %s  p99 %s  (n=%d)\n", fmtLatency(p50), fmtLatency(p99), n)
	}
}

func renderFleet(w io.Writer, d *window) {
	replicas, ok := d.gauge("gsim_fleet_replicas")
	if !ok {
		return
	}
	fmt.Fprintf(w, "\nfleet\n")
	ready, _ := d.gauge("gsim_fleet_replicas_ready")
	sessions, _ := d.gauge("gsim_fleet_sessions")
	fmt.Fprintf(w, "  replicas             %10.0f (%.0f ready), %.0f routed sessions\n", replicas, ready, sessions)
	if lag, ok := d.gauge("gsim_fleet_heartbeat_lag_seconds"); ok {
		fmt.Fprintf(w, "  heartbeat lag        %10.2f s\n", lag)
	}
	if p50, p99, n, ok := d.quantiles("gsim_fleet_proxy_latency_seconds"); ok {
		fmt.Fprintf(w, "  proxy latency        p50 %s  p99 %s  (n=%d)\n", fmtLatency(p50), fmtLatency(p99), n)
	}
	okd, _ := d.delta("gsim_fleet_migrations_total", "outcome", "success")
	faild, _ := d.delta("gsim_fleet_migrations_total", "outcome", "failed")
	if okd > 0 || faild > 0 {
		fmt.Fprintf(w, "  migrations           %10.0f ok, %.0f failed in window\n", okd, faild)
		if by, ok := d.rate("gsim_fleet_migration_bytes_total"); ok {
			fmt.Fprintf(w, "  migration traffic    %10.2f MiB/s\n", by/(1<<20))
		}
	}
	if p50, p99, n, ok := d.quantiles("gsim_fleet_migration_duration_seconds"); ok {
		fmt.Fprintf(w, "  migration latency    p50 %s  p99 %s  (n=%d)\n", fmtLatency(p50), fmtLatency(p99), n)
	}
	if lost, ok := d.delta("gsim_fleet_sessions_lost_total"); ok && lost > 0 {
		fmt.Fprintf(w, "  sessions lost        %10.0f in window\n", lost)
	}
}

func renderProcess(w io.Writer, d *window) {
	gor, ok := d.gauge("gsim_go_goroutines")
	if !ok {
		return
	}
	heap, _ := d.gauge("gsim_go_heap_alloc_bytes")
	fmt.Fprintf(w, "\nprocess\n")
	fmt.Fprintf(w, "  goroutines           %10.0f\n", gor)
	fmt.Fprintf(w, "  heap                 %10.1f MiB\n", heap/(1<<20))
	// What the garbage costs, per unit of service: a replica counts the HTTP
	// requests it served, a router the requests it proxied.
	if alloc, ok := d.delta("gsim_go_alloc_bytes_total"); ok {
		reqs, isReplica := d.delta("gsim_server_http_requests_total")
		if !isReplica {
			reqs, _ = d.delta("gsim_fleet_proxy_latency_seconds_count")
		}
		if reqs > 0 {
			fmt.Fprintf(w, "  alloc / request      %10.1f KiB over %.0f requests\n", alloc/reqs/(1<<10), reqs)
		}
	}
	if gcs, ok := d.rate("gsim_go_gc_cycles_total"); ok {
		fmt.Fprintf(w, "  GC cycles / s        %10.2f\n", gcs)
	}
}

// labelValues collects the distinct values of one label across a metric's
// samples, sorted for stable output.
func labelValues(s *obs.Scrape, name, label string) []string {
	seen := map[string]bool{}
	for _, sm := range s.Matching(name) {
		if v, ok := sm.Labels[label]; ok && !seen[v] {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// fmtLatency renders a seconds value in the most readable unit.
func fmtLatency(sec float64) string {
	switch {
	case sec >= 1:
		return fmt.Sprintf("%.2fs", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	}
}
