// Package engine implements the two RTL simulation models the paper
// compares:
//
//   - FullCycle: static topological-order evaluation of every node every
//     cycle — the Verilator model (paper Listing 1). On an optimized graph it
//     also stands in for Arcilator (expression optimization, no activity
//     tracking). Its worker count is only a schedule: with N workers it runs
//     the merged-level shard schedule over its nodes between barriers
//     (Verilator -threads N).
//   - Activity: the essential-signal engine (paper Listing 2/3/4) with
//     per-supernode active bits, run by one worker. Configured with MFFC
//     partitions and always-branchless activation it models ESSENT; with the
//     enhanced partitioner, multi-bit active-word checking, the activation
//     cost model, and the reset slow path it is GSIM.
//
// FullCycle builds its multi-worker schedule as a partition.ShardView
// (Compiled.Shard): dependence levels merged until a barrier is worth
// paying, each level split across the workers. One worker is the degenerate
// schedule: a single level, run inline on the caller with no goroutine and
// no barrier, which is how Activity always runs.
//
// Each engine splits into an immutable Plan — kernel stream, schedule,
// activation tables — built once per compiled design, and the per-engine
// state an engine of the plan owns: machine, active bits, shadows, pending
// registers. Lanes steps K engines of one plan in lockstep, the
// multi-stimulus session; a scalar session is its one-lane case.
//
// All engines run the same compiled emit.Program and must produce identical
// state trajectories; the test suite enforces this on randomized circuits.
package engine

import (
	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/ir"
	"gsim/internal/partition"
)

// Sim is a cycle-accurate simulator instance.
type Sim interface {
	// Reset restores complete power-on state without recompiling: register
	// init values, memory images, stat counters, and engine bookkeeping all
	// return to their post-construction values, and full evaluation is
	// re-armed for the next Step. Session pools rely on Reset being
	// indistinguishable from a fresh build of the same configuration.
	Reset()
	// Close releases engine resources (worker goroutines; a no-op for
	// one-worker engines). Idempotent, and safe to interleave with Reset —
	// but never concurrent with Step. A closed engine must not be stepped.
	Close()
	// Step simulates one clock cycle.
	Step()
	// Peek returns a node's current value.
	Peek(nodeID int) bitvec.BV
	// Poke sets an input node's value, taking effect on the next Step.
	Poke(nodeID int, v bitvec.BV)
	// PeekMem returns one memory element.
	PeekMem(memID, addr int) bitvec.BV
	// PokeMem overwrites one memory element (loader use; does not activate).
	PokeMem(memID, addr int, v bitvec.BV)
	// Stats returns the engine's running counters.
	Stats() *Stats
	// Machine exposes the underlying state for debugging and verification.
	Machine() *emit.Machine
}

// Stats collects the quantities the paper's model and Table III report.
type Stats struct {
	Cycles         uint64
	NodeEvals      uint64 // "active node": node evaluations performed
	Activations    uint64 // "activation times": successor-activation operations
	Examinations   uint64 // Aexam: active-bit/word checks
	InstrsExecuted uint64 // compiled instructions retired
	RegCommits     uint64 // register next->cur copies that changed the value
	EvaluableNodes uint64 // nodes that carry evaluation work (denominator for af)
	ResetFastSkips uint64 // reset checks avoided by the slow-path optimization
}

// ActivityFactor returns the average fraction of evaluable nodes evaluated
// per cycle (the paper's af).
func (s *Stats) ActivityFactor() float64 {
	if s.Cycles == 0 || s.EvaluableNodes == 0 {
		return 0
	}
	return float64(s.NodeEvals) / float64(s.Cycles) / float64(s.EvaluableNodes)
}

// Tracer consumes one end-of-cycle state snapshot per Step. The engine hands
// it the live state image; the tracer must copy what it needs before
// returning (internal/trace packs traced words into a ring slot). Attach one
// with AttachTracer on any engine; every engine samples at the very end of
// Step, after commits and resets — the same values an external caller would
// observe by Peeking between Steps.
type Tracer interface {
	Snapshot(st []uint64)
}

// Plan is the immutable half of an engine: every table a compiled program
// and its schedule determine — kernel streams, slot layouts, activation
// lists, register and reset lists. A compiled design builds its plan once,
// and every engine of the design (every session, every lane) reads it
// concurrently; an engine owns only its mutable state.
type Plan interface {
	// NewEngine builds an engine over the plan. It allocates the engine's
	// machine and bookkeeping and compiles nothing.
	NewEngine() Compiled
	// Bytes is the plan's resident size: its stream and tables.
	Bytes() int
	// Footprint is the size of the plan's stream: kernels, operand records
	// and the bytes of both (emit.Stream.Footprint).
	Footprint() (kernels, records, bytes int)
}

// tables are the engine-independent part of every plan.
type tables struct {
	p      *emit.Program
	writes []int32 // memory write-port node IDs
	coded  []int32 // all node IDs with evaluation work, in ID (== topo) order
	resets []resetGroup

	// The full-cycle multi-worker schedule (see Shard); nil with one worker.
	shard *partition.ShardView
}

// base carries the per-engine plumbing shared by every engine: the machine,
// tracer and counters over the plan's tables.
type base struct {
	*tables
	m      *emit.Machine
	tracer Tracer
	stats  Stats

	// Observability plumbing (see obs.go): the attached process-wide bundle
	// and the stats image as of the last flush.
	obs        *Metrics
	obsFlushed Stats
}

// resetGroup is the set of registers sharing one extracted reset signal.
// Registers gain a ResetSig after the reset-extraction pass; engines must
// then apply Init at the end of any cycle in which the signal is high (paper
// Listing 6). This is graph semantics, not an engine option, so every engine
// honors it.
type resetGroup struct {
	sig  int32
	regs []int32
}

func newTables(p *emit.Program) *tables {
	t := &tables{p: p}
	bySig := map[int32]int{}
	for _, n := range p.Graph.Nodes {
		if n.HasCode() {
			t.coded = append(t.coded, int32(n.ID))
		}
		switch n.Kind {
		case ir.KindReg:
			if n.ResetSig != nil {
				sig := int32(n.ResetSig.ID)
				gi, ok := bySig[sig]
				if !ok {
					gi = len(t.resets)
					bySig[sig] = gi
					t.resets = append(t.resets, resetGroup{sig: sig})
				}
				t.resets[gi].regs = append(t.resets[gi].regs, int32(n.ID))
			}
		case ir.KindMemWrite:
			t.writes = append(t.writes, int32(n.ID))
		}
	}
	return t
}

// bytes is the tables' resident size.
func (t *tables) bytes() int {
	n := 4 * (len(t.writes) + len(t.coded))
	for _, rg := range t.resets {
		n += 4 * len(rg.regs)
	}
	if v := t.shard; v != nil {
		n += 4 * (len(v.LevelOf) + len(v.ShardOf))
		for _, lv := range v.Chunks {
			for _, sups := range lv {
				n += 4 * len(sups)
			}
		}
	}
	return n
}

// Shard is the engine's multi-worker schedule: the merged-level shard view
// (partition.Result.Shard) a multi-worker FullCycle's workers sweep, over
// singleton supernodes. Nil with one worker, whose schedule is a single level
// with no barrier, and always nil for Activity.
func (t *tables) Shard() *partition.ShardView { return t.shard }

// instrWeight weighs a node by its compiled instruction count, the cost the
// shard view balances.
func instrWeight(p *emit.Program) func(id int32) int64 {
	return func(id int32) int64 { return int64(p.Code[id].Len()) }
}

// newBase allocates an engine's machine: the program's persistent words,
// its next values and one temporary region per worker of its schedule.
func newBase(t *tables, workers int) base {
	b := base{tables: t, m: emit.NewMachineRegions(t.p, workers)}
	b.stats.EvaluableNodes = uint64(len(b.coded))
	return b
}

// applyResets runs the reset slow path: one check per reset signal; when a
// signal is high, every register in its group is forced to its init value.
// It runs after the commit, and next values are scratch, so only the
// current words change. onChange, if non-nil, is called for each register
// whose value changed.
func (b *base) applyResets(onChange func(id int32)) {
	p := b.m.Prog
	st := b.m.State
	for _, rg := range b.resets {
		if st[p.Off[rg.sig]] == 0 {
			b.stats.ResetFastSkips += uint64(len(rg.regs))
			continue
		}
		for _, id := range rg.regs {
			cur, w := p.Off[id], p.WordsOf[id]
			var diff uint64
			for i := int32(0); i < w; i++ {
				iv := p.Init[cur+i]
				diff |= st[cur+i] ^ iv
				st[cur+i] = iv
			}
			if diff != 0 {
				b.stats.RegCommits++
				if onChange != nil {
					onChange(id)
				}
			}
		}
	}
}

// resetBase restores the engine-independent power-on state: the machine's
// state image, memory arrays, and retired-instruction counter, plus the stat
// block (EvaluableNodes is structural and survives). Engines layer their own
// re-arming (active bits, pending lists) on top.
func (b *base) resetBase() {
	b.FlushObs() // bank progress earned since the last flush before zeroing
	b.m.Reset()
	b.m.Executed = 0
	b.stats = Stats{EvaluableNodes: uint64(len(b.coded))}
	b.obsFlushed = b.stats
}

// countInstrs retires n instructions into both the engine stats and the
// machine's Executed counter. Engines call it only from serial context (per
// step, or per supernode from the essential-signal engine's one-worker
// sweep), so the counters stay race-free and accurate regardless of
// evaluation mode and thread count.
func (b *base) countInstrs(n uint64) {
	b.stats.InstrsExecuted += n
	b.m.Executed += n
}

// AttachTracer routes waveform capture through t: every subsequent Step ends
// with one t.Snapshot call over the machine state. Attach nil to detach.
// Because every engine embeds base, the async pipeline (internal/trace) plugs
// into both the same way.
func (b *base) AttachTracer(t Tracer) { b.tracer = t }

// sampleTrace feeds the attached tracer, if any, and amortizes the metrics
// flush. Engines call it as the last action of Step, from serial coordinator
// context — the one hook every engine already has at end-of-cycle.
func (b *base) sampleTrace() {
	if b.tracer != nil {
		b.tracer.Snapshot(b.m.State)
	}
	b.maybeFlushObs()
}

func (b *base) Peek(nodeID int) bitvec.BV            { return b.m.Peek(nodeID) }
func (b *base) PeekMem(memID, addr int) bitvec.BV    { return b.m.PeekMem(memID, addr) }
func (b *base) PokeMem(memID, addr int, v bitvec.BV) { b.m.PokeMem(memID, addr, v) }
func (b *base) Stats() *Stats                        { return &b.stats }
func (b *base) Machine() *emit.Machine               { return b.m }

// commitWrites applies enabled memory write ports. It returns the IDs of
// memories whose contents changed (into the provided scratch slice).
func (b *base) commitWrites(changed []int32) []int32 {
	p := b.m.Prog
	st := b.m.State
	for _, id := range b.writes {
		if st[p.WEnOff[id]] == 0 {
			continue
		}
		memID := p.Graph.Nodes[id].Mem.ID
		spec := &p.Mems[memID]
		addr := st[p.WAddrOff[id]]
		if addr >= uint64(spec.Depth) {
			continue
		}
		dataOff := p.WDataOff[id]
		base := int32(addr) * spec.WordsPer
		mem := b.m.Mems[memID]
		diff := uint64(0)
		for i := int32(0); i < spec.WordsPer; i++ {
			v := st[dataOff+i]
			diff |= mem[base+i] ^ v
			mem[base+i] = v
		}
		if diff != 0 {
			changed = append(changed, int32(memID))
		}
	}
	return changed
}

// StepN runs n cycles on any Sim.
func StepN(s Sim, n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}
