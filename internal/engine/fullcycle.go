package engine

import (
	"gsim/internal/bitvec"
	"gsim/internal/emit"
)

// FullCycle evaluates every node every cycle in topological order — the
// paper's Listing 1, the Verilator scheduling model. The worker count is a
// schedule over it.
//
// With more than one worker it is the stand-in for Verilator's -threads mode:
// nodes are levelized (all nodes in one level are mutually independent given
// earlier levels), and each level is split across persistent workers
// separated by barriers (workerPool). Like the real thing, the fixed
// per-level synchronization cost means small designs slow down while large
// designs speed up — the shape Fig. 6 reports. One worker needs no barrier:
// its schedule is one level holding every node in ID order, so a Step is a
// single linear sweep over the whole instruction stream, run inline on the
// caller.
//
// Every (level, worker) chunk compiles into one chain of the plan's stream,
// so a worker's share of a level is a single sweep with no per-node range
// lookups.
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
// compacted in topological order (core.Build guarantees this). byLevel is
// the graph's levelization (ir.Graph.Levelize), which only a multi-worker
// schedule reads: one worker may pass nil.
func PlanFullCycle(p *emit.Program, byLevel [][]int32, threads int, mode EvalMode) *FullCyclePlan {
	threads = max(threads, 1)
	pl := &FullCyclePlan{t: newTables(p), threads: threads}
	// chunks[lv][w] lists the nodes worker w sweeps at level lv.
	var chunks [][][]int32
	if threads == 1 {
		chunks = [][][]int32{{pl.t.coded}}
	} else {
		// Split each level into per-worker chunks, skipping nodes with no
		// code and balancing by instruction count.
		for _, level := range byLevel {
			var ids []int32
			total := int64(0)
			for _, id := range level {
				if r := p.Code[id]; r.Len() > 0 {
					ids = append(ids, id)
					total += int64(r.Len())
				}
			}
			chunk := make([][]int32, threads)
			if len(ids) > 0 {
				per := total/int64(threads) + 1
				w, acc := 0, int64(0)
				for _, id := range ids {
					chunk[w] = append(chunk[w], id)
					acc += int64(p.Code[id].Len())
					if acc >= per && w < threads-1 {
						w++
						acc = 0
					}
				}
			}
			chunks = append(chunks, chunk)
		}
		pl.t.obsLevels = len(chunks)
		pl.t.obsOrigLevels = len(chunks)
	}
	pl.stream = emit.NewStream(p, mode)
	pl.chains = make([][]emit.Span, len(chunks))
	for lv, chunk := range chunks {
		pl.chains[lv] = make([]emit.Span, threads)
		for w, ids := range chunk {
			pl.chains[lv][w] = pl.stream.AppendNodes(ids)
		}
	}
	pl.stream.Trim()
	return pl
}

// NewEngine builds a full-cycle engine over the plan.
func (pl *FullCyclePlan) NewEngine() Compiled { return pl.newEngine() }

func (pl *FullCyclePlan) newEngine() *FullCycle {
	e := &FullCycle{base: newBase(pl.t), pl: pl}
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
func NewFullCycle(p *emit.Program, byLevel [][]int32, threads int, mode EvalMode) *FullCycle {
	return PlanFullCycle(p, byLevel, threads, mode).newEngine()
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
