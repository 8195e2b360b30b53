package engine

import (
	"cmp"
	"slices"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/ir"
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
// no barrier: its schedule is one level holding every node, so a Step is a
// single linear sweep over the whole instruction stream, run inline on the
// caller.
//
// Every (level, worker) chunk compiles into one chain of the plan's stream,
// its nodes in ascending ID (== topological) order, so a worker's share of a
// level is a single sweep with no per-node range lookups and every edge
// inside the chunk runs source first. Worker w's chains run in temporary
// region w.
//
// Registers commit after the sweep through one flat list of (current, next)
// word pairs. The one-worker sweep keeps most of them off it: it runs every
// non-register node in ID order, then the registers reader-first (a
// register that reads another's current value runs before it, and each
// depth of that order runs in ID order), so once a register runs nothing
// later in the cycle reads its old value, and the stream stores its next
// value straight over its current one, in every stream mode. Only a
// register in a read cycle (a <= b, b <= a), a wide one, and every register
// of a multi-worker schedule commit through the list.
type FullCycle struct {
	base
	pl         *FullCyclePlan
	pool       *workerPool
	memScratch []int32
}

// FullCyclePlan is the full-cycle engine's immutable half: the schedule,
// the stream of its chains and the registers' commit list.
type FullCyclePlan struct {
	t       *tables
	threads int
	stream  *emit.Stream
	chains  [][]emit.Span // level -> worker -> chain
	commit  []int32       // (current, next) word pairs the Step copies
	regs    RegPlacement
}

// RegPlacement counts how a full-cycle plan commits its registers: InPlace
// of Regs update in place, the rest through the commit list. Of the one
// worker's registers that cannot, Cyclic sit in a register read cycle and
// Wide span more than one word; a multi-worker plan analyses neither.
type RegPlacement struct{ InPlace, Regs, Cyclic, Wide int }

// Registers reports how the plan commits its registers.
func (pl *FullCyclePlan) Registers() RegPlacement { return pl.regs }

// PlanFullCycle builds the full-cycle plan for a compiled program, swept by
// threads workers (< 1 means one). The program's graph must have been
// compacted in topological order (core.Build guarantees this), and a
// multi-worker plan walks its edges.
func PlanFullCycle(p *emit.Program, threads int, mode EvalMode) *FullCyclePlan {
	threads = max(threads, 1)
	pl := &FullCyclePlan{t: newTables(p), threads: threads, stream: emit.NewStream(p, mode)}
	var inPlace []bool // node ID -> updates in place; nil: none does
	if threads > 1 {
		part := partition.Singletons(p.Graph)
		pl.t.shard = part.Shard(p.Graph, threads, instrWeight(p))
		pl.chains = make([][]emit.Span, pl.t.shard.Levels)
		for lv, level := range pl.t.shard.Chunks {
			pl.chains[lv] = make([]emit.Span, threads)
			for w, sups := range level {
				// Singletons number the nodes in ID order, so ascending
				// supernodes are ascending node IDs.
				ids := make([]int32, len(sups))
				for i, s := range sups {
					ids[i] = part.Members[s][0]
				}
				pl.chains[lv][w] = pl.stream.AppendNodes(ids, w, nil)
			}
		}
	} else {
		var order []int32
		order, inPlace, pl.regs = sweepOrder(p, pl.t.coded)
		pl.chains = [][]emit.Span{{pl.stream.AppendNodes(order, 0, func(id int32) bool { return inPlace[id] })}}
	}
	pl.stream.Trim()

	for _, nd := range p.Graph.Nodes {
		if id := nd.ID; nd.Kind == ir.KindReg {
			pl.regs.Regs++
			for w := int32(0); w < p.WordsOf[id] && (inPlace == nil || !inPlace[id]); w++ {
				pl.commit = append(pl.commit, p.Off[id]+w, p.NextOff[id]+w)
			}
		}
	}
	pl.commit = clip(pl.commit)
	return pl
}

// sweepOrder returns the one-worker sweep over the coded nodes: every
// non-register node in ID order, then the registers reader-first, depth by
// depth. A register may update in place (inPlace, by node ID) if the
// program allows it (emit.Program.InPlaceCandidate) and it sits in no
// register read cycle: then every register reading it runs before it. The
// read edges come from the program's instructions, so a released graph will
// do.
func sweepOrder(p *emit.Program, coded []int32) (order []int32, inPlace []bool, rp RegPlacement) {
	nodes := p.Graph.Nodes
	var regs []int32
	for _, id := range coded {
		if nodes[id].Kind == ir.KindReg {
			regs = append(regs, id)
		} else {
			order = append(order, id)
		}
	}
	// regAt maps a persistent word to the register (index into regs) whose
	// current value it holds.
	regAt := make([]int32, p.StateWords)
	for i := range regAt {
		regAt[i] = -1
	}
	for k, id := range regs {
		for w := int32(0); w < p.WordsOf[id]; w++ {
			regAt[p.Off[id]+w] = int32(k)
		}
	}
	reads := make([][]int32, len(regs)) // register -> the registers it reads
	for k, id := range regs {
		r := p.Code[id]
		for i := r.Start; i < r.End; i++ {
			p.Instrs[i].EachRead(func(off, words int32) {
				for w := off; w < off+words && int(w) < len(regAt); w++ {
					if j := regAt[w]; j >= 0 && j != int32(k) {
						reads[k] = append(reads[k], j)
					}
				}
			})
		}
	}
	// A reader has the higher component ID (partition.SCC), so visiting
	// components in descending ID visits readers first. Each register's
	// depth is one more than its deepest reader's; running by depth, then
	// by node ID, runs readers first and keeps each depth in ID order, the
	// order the state image is laid out in.
	scc := partition.SCC(reads)
	size := make([]int32, len(regs))
	for _, c := range scc {
		size[c]++
	}
	byOrder := make([]int32, len(regs))
	for k := range byOrder {
		byOrder[k] = int32(k)
	}
	slices.SortFunc(byOrder, func(a, b int32) int { return cmp.Compare(scc[b], scc[a]) })
	depth := make([]int32, len(regs)) // by component
	for _, k := range byOrder {
		for _, j := range reads[k] {
			if scc[j] != scc[k] {
				depth[scc[j]] = max(depth[scc[j]], depth[scc[k]]+1)
			}
		}
	}
	slices.SortFunc(byOrder, func(a, b int32) int {
		return cmp.Or(cmp.Compare(depth[scc[a]], depth[scc[b]]), cmp.Compare(a, b))
	})
	inPlace = make([]bool, len(nodes))
	for _, k := range byOrder {
		id := regs[k]
		order = append(order, id)
		switch {
		case p.WordsOf[id] > 1:
			rp.Wide++
		case size[scc[k]] > 1:
			rp.Cyclic++
		case p.InPlaceCandidate(id):
			inPlace[id] = true
			rp.InPlace++
		}
	}
	return order, inPlace, rp
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
	return pl.t.bytes() + b + 12*pl.threads*len(pl.chains) + 4*len(pl.commit)
}

// Footprint is the size of the plan's stream.
func (pl *FullCyclePlan) Footprint() (kernels, records, bytes int) { return pl.stream.Footprint() }

// Sweep returns the one-worker plan's chain as its stream compiled it: the
// nodes in sweep order, with the stores of the registers that update in
// place redirected to their current words. A multi-worker plan has no
// sweep and returns nil. The plan keeps neither the order nor the chain, so
// Sweep recomputes both.
func (pl *FullCyclePlan) Sweep() []emit.Instr {
	if pl.threads > 1 {
		return nil
	}
	order, inPlace, _ := sweepOrder(pl.t.p, pl.t.coded)
	return pl.t.p.NodeChain(nil, order, func(id int32) bool { return inPlace[id] })
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
	st, c := e.m.State, e.pl.commit
	for i := 0; i+1 < len(c); i += 2 {
		st[c[i]] = st[c[i+1]]
	}
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
