package engine

import "gsim/internal/obs"

// Metrics is the engine-layer observability bundle: process-wide counters
// every attached engine flushes into. One bundle serves all engines in a
// process (all sessions of a server), so the /metrics view is the fleet of
// simulations in aggregate — per-session numbers stay on Stats.
//
// Flushing is amortized: engines accumulate into their existing Stats block
// (unsynchronized, single-goroutine) and fold the delta into these counters
// every obsFlushEvery cycles plus once on Reset/Close/FlushObs. The per-Step
// cost with a bundle attached is one branch; with none attached, one nil
// check — that gap is what BenchmarkMetricsOverhead pins under 2%.
type Metrics struct {
	Cycles         *obs.Counter
	NodeEvals      *obs.Counter
	Instrs         *obs.Counter
	Activations    *obs.Counter
	Examinations   *obs.Counter
	RegCommits     *obs.Counter
	ResetFastSkips *obs.Counter
	// BarrierWaits counts worker-pool level barriers crossed: cycles × the
	// engine's scheduled levels. One-worker engines contribute zero.
	BarrierWaits *obs.Counter
	// ActiveRatio is the paper's activity factor af over each flushing
	// engine's lifetime (last engine to flush wins; with one dominant design
	// per replica this is the signal the paper's model wants).
	ActiveRatio *obs.Gauge
	// SchedLevels / SchedLevelsOrig expose the barrier schedule depth of the
	// most recently flushed multi-worker engine: its scheduled levels and
	// the dependence levels they merge.
	SchedLevels     *obs.Gauge
	SchedLevelsOrig *obs.Gauge
}

// NewMetrics registers the engine metric family in r (idempotent — every
// caller sharing r gets the same instances).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Cycles:          r.Counter("gsim_engine_cycles_total", "Simulated clock cycles across all engines."),
		NodeEvals:       r.Counter("gsim_engine_node_evals_total", "Node evaluations performed (the paper's active-node count)."),
		Instrs:          r.Counter("gsim_engine_instrs_total", "Compiled kernel instructions retired (kernel dispatches)."),
		Activations:     r.Counter("gsim_engine_activations_total", "Successor-activation operations."),
		Examinations:    r.Counter("gsim_engine_examinations_total", "Active-bit/word examinations (the paper's Aexam)."),
		RegCommits:      r.Counter("gsim_engine_reg_commits_total", "Register commits that changed a value."),
		ResetFastSkips:  r.Counter("gsim_engine_reset_fast_skips_total", "Reset checks skipped by the slow-path optimization."),
		BarrierWaits:    r.Counter("gsim_engine_barrier_waits_total", "Worker-pool level barriers crossed (cycles x scheduled levels)."),
		ActiveRatio:     r.Gauge("gsim_engine_active_ratio", "Activity factor af of the most recently flushed engine."),
		SchedLevels:     r.Gauge("gsim_engine_sched_levels", "Scheduled barrier levels per cycle of the most recently flushed level-scheduled engine."),
		SchedLevelsOrig: r.Gauge("gsim_engine_sched_levels_orig", "Dependence levels before merging of the most recently flushed level-scheduled engine."),
	}
}

// obsFlushEvery is the amortization window: stats deltas fold into the
// process counters once per this many cycles, keeping the hot loop at one
// branch per Step while /metrics stays at most ~1k cycles stale (a step op
// also flushes on completion, so served sessions are exact between ops).
const obsFlushEvery = 1024

// AttachObs points the engine at a metrics bundle; every subsequent flush
// folds stats deltas into it. The current stats become the flush baseline,
// so attaching mid-run does not re-count history. Attach nil to detach.
func (b *base) AttachObs(m *Metrics) {
	b.obs = m
	b.obsFlushed = b.stats
}

// FlushObs folds the unflushed stats delta into the attached bundle, sets
// the activity gauge and moves the flush baseline up. Safe to call at any
// serial point (between Steps); a no-op with nothing attached.
func (b *base) FlushObs() {
	m := b.obs
	if m == nil {
		return
	}
	s, f := &b.stats, &b.obsFlushed
	if v := b.shard; v != nil {
		m.BarrierWaits.Add(satSub(s.Cycles, f.Cycles) * uint64(v.Levels))
		m.SchedLevels.Set(float64(v.Levels))
		m.SchedLevelsOrig.Set(float64(v.OrigLevels))
	}
	m.Cycles.Add(satSub(s.Cycles, f.Cycles))
	m.NodeEvals.Add(satSub(s.NodeEvals, f.NodeEvals))
	m.Instrs.Add(satSub(s.InstrsExecuted, f.InstrsExecuted))
	m.Activations.Add(satSub(s.Activations, f.Activations))
	m.Examinations.Add(satSub(s.Examinations, f.Examinations))
	m.RegCommits.Add(satSub(s.RegCommits, f.RegCommits))
	m.ResetFastSkips.Add(satSub(s.ResetFastSkips, f.ResetFastSkips))
	m.ActiveRatio.Set(s.ActivityFactor())
	*f = *s
}

// maybeFlushObs is the per-Step hook: called from sampleTrace (the one
// serial end-of-Step point every engine already has).
func (b *base) maybeFlushObs() {
	if b.obs != nil && b.stats.Cycles-b.obsFlushed.Cycles >= obsFlushEvery {
		b.FlushObs()
	}
}

// satSub is saturating subtraction: a stat rewrite (Reset, snapshot restore)
// can move a counter backward between flushes; monotone process counters
// must absorb that as zero progress, never wrap.
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
