package engine

import (
	"slices"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/partition"
)

// FullCycle evaluates every node every cycle in topological order — the
// paper's Listing 1, the Verilator scheduling model. The worker count is a
// schedule over it.
//
// With more than one worker it is the stand-in for Verilator's -threads mode,
// and its schedule is the Activity engine's: the merged-level shard view
// (partition.Result.Shard) over singleton supernodes. Nodes are levelized
// over their dependences, consecutive sparse levels merge until a level
// carries the adaptive grain's weight, and each scheduled level is split
// across persistent workers separated by barriers (workerPool), with nodes
// joined by an edge inside a merged level on one worker. Like the real
// thing, the per-level synchronization cost means small designs slow down
// while large designs speed up — the shape Fig. 6 reports. One worker needs
// no barrier: its schedule is one level holding every node in ID order, so a
// Step is a single linear sweep over the whole instruction stream, run
// inline on the caller.
//
// Every (level, worker) chunk compiles into one chain of the plan's stream,
// its nodes in ascending ID (== topological) order, so a worker's share of a
// level is a single sweep with no per-node range lookups and every edge
// inside the chunk runs source first. Worker w's chains run in temporary
// region w.
type FullCycle struct {
	base
	pl         *FullCyclePlan
	pool       *workerPool
	memScratch []int32
}

// FullCyclePlan is the full-cycle engine's immutable half: the schedule and
// the stream of its chains.
type FullCyclePlan struct {
	t       *tables
	threads int
	stream  *emit.Stream
	chains  [][]emit.Span // level -> worker -> chain
}

// PlanFullCycle builds the full-cycle plan for a compiled program, swept by
// threads workers (< 1 means one). The program's graph must have been
// compacted in topological order (core.Build guarantees this), and a
// multi-worker plan walks its edges.
func PlanFullCycle(p *emit.Program, threads int, mode EvalMode) *FullCyclePlan {
	threads = max(threads, 1)
	pl := &FullCyclePlan{t: newTables(p), threads: threads}
	// chunks[lv][w] lists the nodes worker w sweeps at level lv, ascending.
	chunks := [][][]int32{{pl.t.coded}}
	if threads > 1 {
		part := partition.Build(p.Graph, partition.None, 1)
		pl.t.shard = part.Shard(p.Graph, threads, instrWeight(p))
		chunks = make([][][]int32, pl.t.shard.Levels)
		for lv, level := range pl.t.shard.Chunks {
			chunks[lv] = make([][]int32, threads)
			for w, sups := range level {
				ids := make([]int32, len(sups))
				for i, s := range sups {
					ids[i] = part.Members[s][0]
				}
				slices.Sort(ids)
				chunks[lv][w] = ids
			}
		}
	}
	pl.stream = emit.NewStream(p, mode)
	pl.chains = make([][]emit.Span, len(chunks))
	for lv, chunk := range chunks {
		pl.chains[lv] = make([]emit.Span, threads)
		for w, ids := range chunk {
			pl.chains[lv][w] = pl.stream.AppendNodesIn(ids, w)
		}
	}
	pl.stream.Trim()
	return pl
}

// NewEngine builds a full-cycle engine over the plan.
func (pl *FullCyclePlan) NewEngine() Compiled { return pl.newEngine() }

func (pl *FullCyclePlan) newEngine() *FullCycle {
	e := &FullCycle{base: newBase(pl.t, pl.threads), pl: pl}
	pl.stream.CheckMachine(e.m)
	e.pool = newWorkerPool(pl.threads, len(pl.chains), e.runLevel)
	return e
}

// Bytes is the plan's resident size.
func (pl *FullCyclePlan) Bytes() int {
	_, _, b := pl.stream.Footprint()
	return pl.t.bytes() + b + 12*pl.threads*len(pl.chains)
}

// NewFullCycle builds a full-cycle engine over its own plan: PlanFullCycle
// then NewEngine, for callers that build one engine of a program.
func NewFullCycle(p *emit.Program, threads int, mode EvalMode) *FullCycle {
	return PlanFullCycle(p, threads, mode).newEngine()
}

// runLevel executes worker w's chunk of level lv.
func (e *FullCycle) runLevel(w, lv int) { e.pl.stream.Run(e.m, e.pl.chains[lv][w]) }

// Reset restores complete power-on state (image, memories, counters). The
// worker pool is untouched — workers are stateless between cycles — so Reset
// never recompiles and composes with Close in either order.
func (e *FullCycle) Reset() { e.resetBase() }

// Step simulates one cycle across all workers.
func (e *FullCycle) Step() {
	e.stats.Cycles++
	e.pool.cycle()
	e.stats.NodeEvals += uint64(len(e.coded))
	e.countInstrs(uint64(len(e.p.Instrs)))
	e.commitRegs()
	e.memScratch = e.commitWrites(e.memScratch[:0])
	e.applyResets(nil)
	e.sampleTrace()
}

// Close shuts down the worker goroutines and blocks until every one has
// exited (with one worker there are none). It must not be called
// concurrently with Step; calling it more than once is safe.
func (e *FullCycle) Close() { e.pool.Close() }

// Poke sets an input value.
func (e *FullCycle) Poke(nodeID int, v bitvec.BV) { e.m.Poke(nodeID, v) }
