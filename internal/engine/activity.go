package engine

import (
	"math/bits"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/ir"
	"gsim/internal/partition"
)

// ActivationMode selects how successor activation is performed after a node's
// value changes (§III-B "Activation overhead optimization").
type ActivationMode uint8

// Activation strategies.
const (
	// ActBranch tests the change flag once and loops over successors only
	// when set (paper Listing 2 lines 4-5).
	ActBranch ActivationMode = iota
	// ActBranchless ORs a change mask into every successor's active word,
	// trading extra ALU work for the removal of a data-dependent branch —
	// ESSENT's strategy.
	ActBranchless
	// ActCostModel picks per node: branchless when the successor count is at
	// most DefaultBranchlessMax, branching otherwise — GSIM's strategy.
	ActCostModel
)

// ActivityConfig selects the essential-signal engine's optional techniques.
type ActivityConfig struct {
	// MultiBitCheck enables the fast path that examines 64 active bits with
	// one word test (paper Listing 4).
	MultiBitCheck bool
	// Activation selects the successor-activation strategy.
	Activation ActivationMode
}

// DefaultBranchlessMax is the cost-model threshold for ActCostModel: nodes
// with more successor supernodes than this use the branching strategy.
const DefaultBranchlessMax = 6

// Activity is the essential-signal engine (paper Listing 2/3/4): every
// supernode has an active bit, bit s of the active words for supernode s;
// only active supernodes are evaluated; value changes activate reader
// supernodes. It runs one worker, the serial loop of Listing 4: a sweep
// scans the active words in ascending supernode (== topological) order, so
// every activation a supernode makes lands on a strictly later bit, which
// the scan reaches later in the same sweep. Register and memory commits,
// external pokes and the reset slow path run after the sweep.
//
// The engine produces the same state trajectory as Reference; the
// equivalence tests enforce this.
type Activity struct {
	base
	pl *ActivityPlan
	*activationPlan
	plan *supPlan
	pool *workerPool

	active     []uint64 // active bits: supernode s is bit s&63 of word s>>6
	prev       []uint64 // shadow of each plan track slot (supPlan.track)
	wprev      []uint64 // shadow words of the plan's wide slots
	pending    []int32  // plan register slots awaiting commit
	memScratch []int32
}

// ActivityPlan is the essential-signal engine's immutable half: the
// activation plan and the flat supernode plan with its stream.
type ActivityPlan struct {
	t         *tables
	part      *partition.Result
	partPrint uint64 // part.Fingerprint(), what snapshots name the partition by
	cfg       ActivityConfig

	*activationPlan
	plan *supPlan
}

// activationPlan is the supernode-level activation policy: per-node
// reader lists, the per-node activation strategy, and the readers re-armed by
// memory writes and reset pokes. Readers are supernode IDs, which are also
// their active bits, so activating one is a single bit set.
type activationPlan struct {
	// Per-node tables (indexed by node ID).
	succStart []int32
	succSup   []int32 // flattened reader-supernode lists

	// Activation strategy, decided per node from its successor count.
	activation ActivationMode

	memReadSups [][]int32 // memory ID -> read-port supernodes

	// resetSups maps a reset signal's node ID to the supernodes holding its
	// registers. Poking a reset signal re-arms those supernodes so the
	// registers recompute their next values the cycle reset deasserts —
	// after reset extraction the signal no longer appears in their
	// expressions, so normal dataflow activation cannot reach them.
	resetSups map[int32][]int32
}

// buildActivationPlan derives the activation policy for a compiled program
// and partition. resets is the engine's reset grouping (base.resets).
func buildActivationPlan(p *emit.Program, part *partition.Result, cfg ActivityConfig, resets []resetGroup) *activationPlan {
	g := p.Graph
	n := len(g.Nodes)
	pl := &activationPlan{activation: cfg.Activation}

	// Reader-supernode lists. For combinational nodes the node's own
	// supernode is excluded (members of one supernode are evaluated together
	// in dependence order, so intra-supernode edges need no activation);
	// registers and inputs keep every reader because their activations land
	// at commit/poke time for the *next* sweep.
	//
	// Every list below is a duplicate-free supernode set; stamp[s] records
	// the last list that took s, so one slice serves them all.
	stamp := make([]int32, part.Count())
	var gen int32
	addSup := func(list []int32, s int32) []int32 {
		if s < 0 || stamp[s] == gen {
			return list
		}
		stamp[s] = gen
		return append(list, s)
	}
	adj := g.BuildAdjacency()
	pl.succStart = make([]int32, n+1)
	for _, node := range g.Nodes {
		id := node.ID
		gen++
		if node.Kind == ir.KindComb || node.Kind == ir.KindMemRead {
			if own := part.SupOf[id]; own >= 0 {
				stamp[own] = gen
			}
		}
		for _, r := range adj.Succs[id] {
			pl.succSup = addSup(pl.succSup, part.SupOf[r])
		}
		pl.succStart[id+1] = int32(len(pl.succSup))
	}

	// Memory read-port supernodes, activated when a write changes contents.
	pl.memReadSups = make([][]int32, len(g.Mems))
	for mi, mem := range g.Mems {
		gen++
		for _, rp := range mem.Reads {
			pl.memReadSups[mi] = addSup(pl.memReadSups[mi], part.SupOf[rp.ID])
		}
	}

	if len(resets) > 0 {
		pl.resetSups = map[int32][]int32{}
		for _, rg := range resets {
			gen++
			for _, reg := range rg.regs {
				pl.resetSups[rg.sig] = addSup(pl.resetSups[rg.sig], part.SupOf[reg])
			}
		}
	}
	return pl
}

// bytes is the plan's resident size.
func (pl *activationPlan) bytes() int {
	n := 4 * (len(pl.succStart) + len(pl.succSup))
	for _, sups := range pl.memReadSups {
		n += 4 * len(sups)
	}
	for _, sups := range pl.resetSups {
		n += 4*len(sups) + 8
	}
	return n
}

// useBranch is the activation strategy of a node whose reader supernodes
// are succSup[lo:hi].
func (pl *activationPlan) useBranch(lo, hi int32) bool {
	switch pl.activation {
	case ActBranch:
		return true
	case ActBranchless:
		return false
	}
	return int(hi-lo) > DefaultBranchlessMax
}

// PlanActivity builds the essential-signal plan over a compiled program and a
// supernode partition of the same graph. Every supernode runs through the
// flat plan (supPlan), whose stream mode decides the kernels.
func PlanActivity(p *emit.Program, part *partition.Result, cfg ActivityConfig, mode EvalMode) *ActivityPlan {
	pl := &ActivityPlan{t: newTables(p), part: part, partPrint: part.Fingerprint(), cfg: cfg}
	pl.activationPlan = buildActivationPlan(p, part, cfg, pl.t.resets)
	pl.plan = buildSupPlan(p, part, pl.activationPlan, mode)
	return pl
}

// NewEngine builds an essential-signal engine over the plan.
func (pl *ActivityPlan) NewEngine() Compiled { return pl.newEngine() }

func (pl *ActivityPlan) newEngine() *Activity {
	e := &Activity{
		base:           newBase(pl.t, 1),
		pl:             pl,
		activationPlan: pl.activationPlan,
		plan:           pl.plan,
		active:         make([]uint64, (pl.part.Count()+63)/64),
		prev:           make([]uint64, len(pl.plan.track)),
		wprev:          make([]uint64, pl.plan.wideWords),
	}
	pl.plan.stream.CheckMachine(e.m)
	e.syncShadows()
	e.pool = newWorkerPool(1, 1, e.sweep)
	e.activateAll()
	return e
}

// Bytes is the plan's resident size.
func (pl *ActivityPlan) Bytes() int {
	return pl.t.bytes() + pl.activationPlan.bytes() + pl.plan.bytes()
}

// Footprint is the size of the plan's stream.
func (pl *ActivityPlan) Footprint() (kernels, records, bytes int) { return pl.plan.stream.Footprint() }

// NewActivity builds an essential-signal engine over its own plan:
// PlanActivity then NewEngine, for callers that build one engine of a
// program.
func NewActivity(p *emit.Program, part *partition.Result, cfg ActivityConfig, mode EvalMode) *Activity {
	return PlanActivity(p, part, cfg, mode).newEngine()
}

func (e *Activity) activateAll() {
	for s := range e.pl.part.Count() {
		e.active[s>>6] |= uint64(1) << uint(s&63)
	}
}

// clearActivity empties the active bits and the pending list — everything
// but the stat counters a fresh engine starts without.
func (e *Activity) clearActivity() {
	clear(e.active)
	e.pending = e.pending[:0]
}

// Reset restores complete power-on state (image, memories, counters) and
// re-arms full evaluation: active bits and the pending list return to their
// post-construction shape, with no recompilation.
func (e *Activity) Reset() {
	e.resetBase()
	e.syncShadows()
	e.clearActivity()
	e.activateAll()
}

// Poke sets an input and activates its readers when the value changes.
func (e *Activity) Poke(nodeID int, v bitvec.BV) {
	if e.m.Poke(nodeID, v) {
		e.activateReaders(int32(nodeID))
		e.arm(e.resetSups[int32(nodeID)])
	}
}

// arm sets the active bits of supernodes sups.
func (e *Activity) arm(sups []int32) {
	for _, s := range sups {
		e.active[s>>6] |= uint64(1) << uint(s&63)
	}
}

// activateReaders arms every reader supernode of a node whose value changed
// outside the sweep (poke, commit, reset), counting the activations.
func (e *Activity) activateReaders(id int32) { e.activateRange(e.succStart[id], e.succStart[id+1]) }

func (e *Activity) activateRange(lo, hi int32) {
	e.arm(e.succSup[lo:hi])
	e.stats.Activations += uint64(hi - lo)
}

// Step simulates one cycle: the sweep over the active supernodes, then the
// register, memory and reset commits.
func (e *Activity) Step() {
	e.stats.Cycles++
	e.pool.cycle()
	e.commit()
	e.sampleTrace()
}

// sweep evaluates every active supernode in ascending order, applying the
// multi-bit check when configured. It runs as the one-worker pool's only
// level, so panic containment matches the full-cycle engine's.
//
// The scan re-reads each active word until it drains rather than working on
// a snapshot: a supernode can activate a later supernode — including a later
// bit of the same word — and the re-read picks it up. Activation targets
// never precede their source (supernodes are numbered in topological order),
// so the forward scan misses nothing.
func (e *Activity) sweep(int, int) {
	count := e.pl.part.Count()
	for wi := range e.active {
		if e.pl.cfg.MultiBitCheck {
			// Listing 4: one test clears 64 bits.
			e.stats.Examinations++
			for {
				word := e.active[wi]
				if word == 0 {
					break
				}
				b := bits.TrailingZeros64(word)
				e.active[wi] &^= uint64(1) << uint(b)
				e.stats.Examinations++
				e.evalSupernode(int32(wi<<6 + b))
			}
		} else {
			for b := 0; b < 64 && wi<<6+b < count; b++ {
				e.stats.Examinations++
				if mask := uint64(1) << uint(b); e.active[wi]&mask != 0 {
					e.active[wi] &^= mask
					e.evalSupernode(int32(wi<<6 + b))
				}
			}
		}
	}
}

// evalSupernode runs one supernode's chain, then shadow-compares its
// tracked members, activating the readers of each that changed, and queues
// its registers whose next value differs.
func (e *Activity) evalSupernode(s int32) {
	pl := e.plan
	st := e.m.State
	r, end := pl.sweep(e.m, s)
	e.stats.NodeEvals += uint64(r.nodes)
	e.countInstrs(uint64(r.instrs))
	track, prev := pl.track[r.track:end.track], e.prev[r.track:end.track]
	prev = prev[:len(track)]
	for i := range track {
		t := &track[i]
		v := st[t.off]
		e.activate(t.succ, t.succEnd, t.branch, v^prev[i])
		prev[i] = v
	}
	for i := r.wide; i < end.wide; i++ {
		t := &pl.wide[i]
		e.activate(t.succ, t.succEnd, t.branch, wideDiff(st, e.wprev, t))
	}
	e.pending = pl.queueRegs(st, r.reg, end.reg, e.pending)
}

// activate applies an activation strategy to the reader supernodes
// succSup[start:end], given the XOR difference of a value's old and new
// words. The branchless path ORs a mask that is zero when nothing changed,
// so it sets no bit but still counts the activations: that is the work it
// does in place of a data-dependent branch.
func (e *Activity) activate(start, end int32, branch bool, diff uint64) {
	if branch && diff == 0 {
		return
	}
	// Branchless: mask is all-ones iff diff != 0.
	m := uint64(0) - ((diff | -diff) >> 63)
	for _, s := range e.succSup[start:end] {
		e.active[s>>6] |= uint64(1) << uint(s&63) & m
	}
	e.stats.Activations += uint64(end - start)
}

// commit batches register and memory commits at end of cycle, then runs the
// reset slow path.
func (e *Activity) commit() {
	st := e.m.State
	for _, ri := range e.pending {
		g := &e.plan.regs[ri]
		g.commit(st)
		e.stats.RegCommits++
		e.activateRange(g.succ, g.succEnd)
	}
	e.pending = e.pending[:0]

	// Memory writes; content changes re-arm the read ports.
	e.memScratch = e.commitWrites(e.memScratch[:0])
	for _, memID := range e.memScratch {
		e.arm(e.memReadSups[memID])
	}

	// Reset slow path: one check per reset *signal* instead of one per
	// register with a reset port (paper Listing 6).
	e.applyResets(e.activateReaders)
}

// Close releases the engine. It starts no goroutine, so there is nothing to
// join; it must not be called concurrently with Step, and calling it more
// than once is safe.
func (e *Activity) Close() { e.pool.Close() }

func wordsEqual(st []uint64, a, b, w int32) bool {
	for i := int32(0); i < w; i++ {
		if st[a+i] != st[b+i] {
			return false
		}
	}
	return true
}
