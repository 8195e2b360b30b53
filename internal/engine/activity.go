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
	// most BranchlessMax, branching otherwise — GSIM's strategy.
	ActCostModel
)

// ActivityConfig selects the essential-signal engine's optional techniques.
type ActivityConfig struct {
	// MultiBitCheck enables the fast path that examines 64 active bits with
	// one word test (paper Listing 4).
	MultiBitCheck bool
	// Activation selects the successor-activation strategy.
	Activation ActivationMode
	// BranchlessMax is the cost-model threshold for ActCostModel: nodes with
	// more successor supernodes than this use the branching strategy.
	BranchlessMax int
	// Coarsen enables adaptive level coarsening in the parallel engine
	// (ParallelActivity): consecutive sparse levels of the shard schedule
	// merge into one barrier span wherever the cross-level edges permit,
	// cutting barriers per cycle on deep, narrow designs. The serial engine
	// has no barriers and ignores it.
	Coarsen bool
	// CoarsenGrain overrides the coarsening grain (target minimum evaluation
	// weight per merged level); zero selects the adaptive default (mean
	// original level weight). See partition.CoarsenOptions.
	CoarsenGrain int64
}

// DefaultBranchlessMax is the activation cost-model threshold used when the
// config leaves it zero.
const DefaultBranchlessMax = 6

// Activity is the essential-signal engine (paper Listing 2/3/4): every
// supernode has an active bit; only active supernodes are evaluated; value
// changes activate reader supernodes.
type Activity struct {
	base
	part *partition.Result
	cfg  ActivityConfig
	*activationPlan

	active []uint64 // one bit per supernode

	plan       *supPlan
	scratch    []uint64 // interpreter sweep's old-value buffer; nil in kernel modes
	pending    []int32  // plan register slots awaiting commit
	memScratch []int32
}

// activationPlan is the supernode-level activation policy shared by the
// serial (Activity) and parallel (ParallelActivity) essential-signal
// engines: per-node reader-supernode lists, the per-node activation
// strategy, and the supernodes re-armed by memory writes and reset pokes.
// Keeping it in one place guarantees the two engines activate identically —
// the equivalence tests assume exactly that.
type activationPlan struct {
	supStart []int32 // members[supStart[s]:supStart[s+1]] are supernode s's nodes
	members  []int32

	// Per-node tables (indexed by node ID).
	kind      []ir.NodeKind
	succStart []int32
	succSups  []int32 // flattened reader-supernode lists

	// Activation strategy, decided per node from its successor count.
	activation    ActivationMode
	branchlessMax int

	maxWords int32 // widest node value, sizing the interpreter's old-value buffer

	memReadSups [][]int32 // memory ID -> read-port supernodes

	// resetRegSups maps a reset signal's node ID to the supernodes holding
	// its registers. Poking a reset signal re-arms those supernodes so the
	// registers recompute their next values the cycle reset deasserts —
	// after reset extraction the signal no longer appears in their
	// expressions, so normal dataflow activation cannot reach them.
	resetRegSups map[int32][]int32
}

// buildActivationPlan derives the activation policy for a compiled program
// and partition. resets is the engine's reset grouping (base.resets).
func buildActivationPlan(p *emit.Program, part *partition.Result, cfg ActivityConfig, resets []resetGroup) *activationPlan {
	g := p.Graph
	n := len(g.Nodes)
	pl := &activationPlan{maxWords: 1, activation: cfg.Activation, branchlessMax: cfg.BranchlessMax}

	// Flatten supernode membership.
	pl.supStart = make([]int32, part.Count()+1)
	for s, m := range part.Members {
		pl.supStart[s+1] = pl.supStart[s] + int32(len(m))
		pl.members = append(pl.members, m...)
	}

	// Node kind table and max value width.
	pl.kind = make([]ir.NodeKind, n)
	for _, node := range g.Nodes {
		pl.kind[node.ID] = node.Kind
		if w := p.WordsOf[node.ID]; w > pl.maxWords {
			pl.maxWords = w
		}
	}

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
			pl.succSups = addSup(pl.succSups, part.SupOf[r])
		}
		pl.succStart[id+1] = int32(len(pl.succSups))
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
		pl.resetRegSups = map[int32][]int32{}
		for _, rg := range resets {
			gen++
			for _, reg := range rg.regs {
				pl.resetRegSups[rg.sig] = addSup(pl.resetRegSups[rg.sig], part.SupOf[reg])
			}
		}
	}
	return pl
}

// useBranch is the activation strategy of a node whose reader supernodes are
// succSups[lo:hi].
func (pl *activationPlan) useBranch(lo, hi int32) bool {
	switch pl.activation {
	case ActBranch:
		return true
	case ActBranchless:
		return false
	}
	return int(hi-lo) > pl.branchlessMax
}

// NewActivity builds the essential-signal engine over a compiled program and
// a supernode partition of the same graph. In the kernel modes every
// supernode runs through the flat plan (supPlan); EvalInterp selects the
// per-instruction reference interpreter.
func NewActivity(p *emit.Program, part *partition.Result, cfg ActivityConfig, mode EvalMode) *Activity {
	if cfg.BranchlessMax == 0 {
		cfg.BranchlessMax = DefaultBranchlessMax
	}
	a := &Activity{base: newBase(p), part: part, cfg: cfg}
	a.activationPlan = buildActivationPlan(p, part, cfg, a.resets)
	a.active = make([]uint64, (part.Count()+63)/64)
	a.plan = buildSupPlan(p, a.m, a.activationPlan, mode)
	if !a.plan.kernel {
		a.scratch = make([]uint64, a.maxWords)
	}
	a.activateAll()
	return a
}

func (a *Activity) activateAll() {
	for i := range a.active {
		a.active[i] = ^uint64(0)
	}
	if n := uint(a.part.Count()) % 64; n != 0 && len(a.active) > 0 {
		a.active[len(a.active)-1] = (uint64(1) << n) - 1
	}
}

// Reset restores complete power-on state (image, memories, counters) and
// re-arms full evaluation — bit-for-bit the post-construction shape, with no
// recompilation.
func (a *Activity) Reset() {
	a.resetBase()
	a.plan.syncShadows(a.m.State)
	a.activateAll()
	a.pending = a.pending[:0]
}

// Close is a no-op: the serial engine owns no goroutines. It exists so every
// engine satisfies the same lifecycle (session pools Close uniformly).
func (a *Activity) Close() {}

// Poke sets an input and activates its readers when the value changes.
func (a *Activity) Poke(nodeID int, v bitvec.BV) {
	if a.m.Poke(nodeID, v) {
		a.activateReaders(int32(nodeID))
		for _, s := range a.resetRegSups[int32(nodeID)] {
			a.active[s>>6] |= uint64(1) << uint(s&63)
		}
	}
}

// activateReaders arms every reader supernode of a node whose value changed
// outside the sweep (poke, reset).
func (a *Activity) activateReaders(id int32) {
	a.activate(a.succStart[id], a.succStart[id+1], true, 1)
}

// Step simulates one cycle: sweep active supernodes in topological order,
// then commit registers and memory writes, then run the reset slow path.
func (a *Activity) Step() {
	a.stats.Cycles++
	if a.cfg.MultiBitCheck {
		for wi := range a.active {
			a.stats.Examinations++
			for a.active[wi] != 0 {
				b := bits.TrailingZeros64(a.active[wi])
				a.active[wi] &^= uint64(1) << uint(b)
				a.stats.Examinations++
				a.evalSupernode(int32(wi<<6 + b))
			}
		}
	} else {
		nSups := int32(a.part.Count())
		for s := int32(0); s < nSups; s++ {
			a.stats.Examinations++
			w, b := s>>6, uint(s&63)
			if a.active[w]&(1<<b) != 0 {
				a.active[w] &^= 1 << b
				a.evalSupernode(s)
			}
		}
	}
	a.commit()
	a.sampleTrace()
}

// evalSupernode runs the supernode through the flat plan or, under
// EvalInterp, the reference interpreter sweep.
func (a *Activity) evalSupernode(s int32) {
	if a.plan.kernel {
		a.evalSupernodeKernel(s)
		return
	}
	p := a.m.Prog
	st := a.m.State
	ri := a.plan.sups[s].reg // the supernode's register slots, in member order
	for k := a.supStart[s]; k < a.supStart[s+1]; k++ {
		id := a.members[k]
		code := p.Code[id]
		a.stats.NodeEvals++
		a.countInstrs(uint64(code.Len()))
		switch a.kind[id] {
		case ir.KindReg:
			a.m.Exec(code.Start, code.End)
			a.pending = a.plan.queueRegs(st, ri, ri+1, a.pending)
			ri++
		case ir.KindMemWrite:
			a.m.Exec(code.Start, code.End)
		default: // comb, memread
			off, w := p.Off[id], p.WordsOf[id]
			old := a.scratch[:w]
			copy(old, st[off:off+w])
			a.m.Exec(code.Start, code.End)
			var diff uint64
			for i := int32(0); i < w; i++ {
				diff |= old[i] ^ st[off+i]
			}
			lo, hi := a.succStart[id], a.succStart[id+1]
			a.activate(lo, hi, a.useBranch(lo, hi), diff)
		}
	}
}

// evalSupernodeKernel is the plan path: run the supernode's chain, then
// shadow-compare its tracked slots and queue its changed registers. It
// produces the same state trajectory, activations, and stat counters as the
// interpreter path (activation bit-ORs commute).
func (a *Activity) evalSupernodeKernel(s int32) {
	pl := a.plan
	st := a.m.State
	r, end := pl.sweep(s)
	a.stats.NodeEvals += uint64(r.nodes)
	a.countInstrs(uint64(r.instrs))
	for i := r.track; i < end.track; i++ {
		t := &pl.track[i]
		v := st[t.off]
		a.activate(t.succ, t.succEnd, t.branch, v^t.prev)
		t.prev = v
	}
	for i := r.wide; i < end.wide; i++ {
		t := &pl.wide[i]
		a.activate(t.succ, t.succEnd, t.branch, pl.wideDiff(st, t))
	}
	a.pending = pl.queueRegs(st, r.reg, end.reg, a.pending)
}

// activate applies an activation strategy to the reader supernodes
// succSups[lo:hi], given the XOR difference of a value's old and new words.
func (a *Activity) activate(lo, hi int32, branch bool, diff uint64) {
	if branch {
		if diff != 0 {
			for _, s := range a.succSups[lo:hi] {
				a.active[s>>6] |= uint64(1) << uint(s&63)
			}
			a.stats.Activations += uint64(hi - lo)
		}
		return
	}
	// Branchless: mask is all-ones iff diff != 0.
	m := uint64(0) - ((diff | -diff) >> 63)
	for _, s := range a.succSups[lo:hi] {
		a.active[s>>6] |= (uint64(1) << uint(s&63)) & m
	}
	a.stats.Activations += uint64(hi - lo)
}

func (a *Activity) commit() {
	st := a.m.State
	// Registers queued during evaluation have next != cur.
	for _, ri := range a.pending {
		g := &a.plan.regs[ri]
		g.commit(st)
		a.stats.RegCommits++
		a.activate(g.succ, g.succEnd, true, 1)
	}
	a.pending = a.pending[:0]

	// Memory writes; content changes re-arm the read ports.
	a.memScratch = a.commitWrites(a.memScratch[:0])
	for _, memID := range a.memScratch {
		for _, s := range a.memReadSups[memID] {
			a.active[s>>6] |= uint64(1) << uint(s&63)
		}
	}

	// Reset slow path: one check per reset *signal* instead of one per
	// register with a reset port (paper Listing 6).
	a.applyResets(a.activateReaders)
}

func wordsEqual(st []uint64, a, b, w int32) bool {
	for i := int32(0); i < w; i++ {
		if st[a+i] != st[b+i] {
			return false
		}
	}
	return true
}
