package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json mirrors these two
// tables (selftest_test.go holds them equal); bound is the share of the
// parent's median an end-to-end metric may worsen by, calibrated from the
// A/A sets recorded in README.md.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_khz", "kHz", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"live_heap_mb", "MiB", "lower", 0.01},
}

// perLayer is "module.metric"; README.md says which end-to-end metric each
// should move, on which workload.
var perLayer = []metricDef{
	{name: "firrtl.load_ms", unit: "ms", better: "lower"},
	{name: "firrtl.load_mb_s", unit: "MB/s", better: "higher"},
	{name: "passes.run_ms", unit: "ms", better: "lower"},
	{name: "passes.nodes_in", unit: "count", better: "lower"},
	{name: "passes.nodes_out", unit: "count", better: "lower"},
	{name: "partition.build_ms", unit: "ms", better: "lower"},
	{name: "partition.supernodes", unit: "count", better: "lower"},
	{name: "partition.mean_size", unit: "count", better: "higher"},
	{name: "emit.compile_ms", unit: "ms", better: "lower"},
	{name: "emit.instrs", unit: "count", better: "lower"},
	{name: "emit.fused_share", unit: "%", better: "higher"},
	{name: "emit.code_bytes", unit: "bytes", better: "lower"},
	{name: "emit.data_bytes", unit: "bytes", better: "lower"},
	{name: "emit.sweep_ns_per_instr", unit: "ns", better: "lower"},
	{name: "engine.step_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "engine.op_p95_ms", unit: "ms", better: "lower"},
	{name: "engine.ns_per_eval", unit: "ns", better: "lower"},
	{name: "engine.evals_per_cycle", unit: "count", better: "lower"},
	{name: "engine.instrs_per_cycle", unit: "count", better: "lower"},
	{name: "engine.activations_per_cycle", unit: "count", better: "lower"},
	{name: "engine.examinations_per_cycle", unit: "count", better: "lower"},
	{name: "engine.reg_commits_per_cycle", unit: "count", better: "lower"},
	{name: "engine.activity_factor", unit: "%", better: "lower"},
	{name: "engine.overhead_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "core.compile_design_ms", unit: "ms", better: "lower"},
	{name: "core.newsim_ms", unit: "ms", better: "lower"},
	{name: "core.cache_hit_get_us", unit: "us", better: "lower"},
	{name: "snapshot.save_ms", unit: "ms", better: "lower"},
	{name: "snapshot.restore_ms", unit: "ms", better: "lower"},
	{name: "snapshot.blob_kb", unit: "KiB", better: "lower"},
	{name: "snapshot.store_put_ms", unit: "ms", better: "lower"},
	{name: "trace.step_ns_per_cycle_vcd", unit: "ns", better: "lower"},
	{name: "trace.vcd_mb_s", unit: "MB/s", better: "higher"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "server.apply_us", unit: "us", better: "lower"},
	{name: "server.apply_tax_us", unit: "us", better: "lower"},
	{name: "server.http_op_us", unit: "us", better: "lower"},
	{name: "server.http_tax_us", unit: "us", better: "lower"},
	{name: "server.peek_op_us", unit: "us", better: "lower"},
	{name: "server.create_cold_ms", unit: "ms", better: "lower"},
	{name: "server.create_warm_ms", unit: "ms", better: "lower"},
	{name: "server.snapshot_rt_ms", unit: "ms", better: "lower"},
	{name: "server.op_p95_ms", unit: "ms", better: "lower"},
	{name: "server.op_p99_ms", unit: "ms", better: "lower"},
	{name: "server.op_p999_ms", unit: "ms", better: "lower"},
	{name: "server.ops_failed", unit: "count", better: "lower"},
	{name: "fleet.routed_op_us", unit: "us", better: "lower"},
	{name: "fleet.routed_op_p95_ms", unit: "ms", better: "lower"},
	{name: "fleet.hop_tax_us", unit: "us", better: "lower"},
	{name: "fleet.create_routed_ms", unit: "ms", better: "lower"},
	{name: "fleet.migrate_ms", unit: "ms", better: "lower"},
	{name: "fleet.post_migrate_op_us", unit: "us", better: "lower"},
	{name: "fleet.sessions_lost", unit: "count", better: "lower"},
	{name: "obs.scrape_ms", unit: "ms", better: "lower"},
	{name: "obs.metrics_overhead_pct", unit: "%", better: "lower"},
	{name: "host.spin_ms", unit: "ms", better: "lower"},
	{name: "tracing_overhead_pct", unit: "%", better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run: what the last stdout line carries, plus the
// identifying detail printed before it.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Digest    string            `json:"digest"`
	Counts    map[string]uint64 `json:"counts"` // exact for a fixed seed
	Disturbed bool              `json:"disturbed"`
	Problems  []string          `json:"problems,omitempty"`
	WallS     float64           `json:"wall_s"`
	// HostSpeed is how fast the host ran the reference loop during the run,
	// 1 being spinNominal; Raw holds the timed end-to-end metrics as clocked,
	// before they were scaled to the nominal speed. Untraced runs only.
	HostSpeed float64            `json:"host_speed,omitempty"`
	Raw       map[string]float64 `json:"raw,omitempty"`
	// PostMigrate is fleet-routed only: throughput and latency of the segment
	// that follows each round's live migration. Reported, never gated.
	PostMigrate *postMigrate `json:"post_migrate,omitempty"`

	attempted, failed int
	metrics           map[string]metricValue
	defs              []metricDef
}

type postMigrate struct {
	KHz     float64 `json:"sim_khz"`
	OpP50MS float64 `json:"op_p50_ms"`
}

func newReport(w string, seed int64, trace bool) *report {
	r := &report{Workload: w, Seed: seed, Trace: trace, Counts: map[string]uint64{},
		metrics: map[string]metricValue{}, defs: endToEnd}
	if trace {
		r.defs = perLayer
	}
	return r
}

// set records a metric. Naming a metric outside the run's table, or twice,
// is a bug in the benchmark, not a measurement outcome.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name != name {
			continue
		}
		if _, dup := r.metrics[name]; dup {
			panic("benchmark: metric set twice: " + name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// Only a failed op (recorded as +Inf latency) gets here; JSON has
			// no Inf, and the run is already marked incorrect.
			v = math.MaxFloat32
		}
		r.metrics[name] = metricValue{Value: v, Unit: d.unit}
		return
	}
	panic("benchmark: unknown metric " + name)
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.Problems) == 0 && r.failed == 0 }

// missing lists table metrics the run never set.
func (r *report) missing() []string {
	var out []string
	for _, d := range r.defs {
		if _, ok := r.metrics[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}
