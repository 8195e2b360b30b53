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
// supernode has an active bit; only active supernodes are evaluated; value
// changes activate reader supernodes. The worker count is a schedule over
// that one model.
//
// With more than one worker the schedule is the shard view
// (partition.Result.Shard): supernodes are levelized over the dependence
// condensation, consecutive sparse levels merge into one barrier span until
// the span carries the adaptive grain's weight, and each span's supernodes
// are distributed across persistent worker shards, with every dependence
// edge inside a span co-assigned to one shard. Each (shard, level) chunk owns
// a private, word-aligned range of the active-bit array — its slots — so the
// Listing-4 multi-bit check runs per shard with no sharing: a worker scans
// exactly its own words. An activation that targets the worker's own current
// chunk lands on a strictly later slot, because chunks are sorted in
// supernode (== topological) order, so it goes straight into the active
// words (the worker owns them for the whole span) and the scan loop re-reads
// each word until it drains. Every other target sits in a strictly later
// level, so the worker publishes it into its outbox mask, which the owning
// shard OR-merges into its active words at the level barrier — never
// touching a word another worker can write in the same level. A per-(writer,
// chunk) dirty flag lets the merge skip outboxes that published nothing into
// the chunk. Register and memory commits, external pokes, and the reset slow
// path run serially between cycles.
//
// One worker needs no barrier, so its schedule is a single level: one chunk
// holding every supernode in ascending ID, whose slot is its ID. Every
// activation lands in the current chunk, the outboxes stay empty, and the
// sweep runs inline on the caller — the serial loop of Listing 4, with the
// same examinations, activations and evaluations.
//
// Every worker count produces the same state trajectory as Reference; the
// equivalence tests enforce this.
type Activity struct {
	base
	pl *ActivityPlan
	*activationPlan
	plan *supPlan
	pool *workerPool

	active     []uint64 // active bits, in the plan's slot layout
	prev       []uint64 // shadow of each plan track slot (supPlan.track)
	wprev      []uint64 // shadow words of the plan's wide slots
	memScratch []int32
	ws         []*worker
}

// ActivityPlan is the essential-signal engine's immutable half: the
// schedule, the active-bit slot layout, the activation plan and the flat
// supernode plan with its stream.
type ActivityPlan struct {
	t         *tables
	part      *partition.Result
	partPrint uint64 // part.Fingerprint(), what snapshots name the partition by
	cfg       ActivityConfig
	threads   int
	levels    int

	// Active-bit layout: one concatenated word array, shard-major then
	// level-minor, each (shard, level) chunk padded to whole words.
	words     int32
	wordLo    [][]int32 // [shard][level] -> first word; [shard][levels] ends it
	wordChunk []int32   // word -> owning chunk (shard*levels + level)
	supSlot   []int32   // supernode -> slot (word*64 + bit)
	slotSup   []int32   // slot -> supernode; -1 for padding bits

	*activationPlan
	plan *supPlan
}

// activationPlan is the supernode-level activation policy: per-node
// reader lists, the per-node activation strategy, and the readers re-armed by
// memory writes and reset pokes. Readers are slots of the engine's active-bit
// array, not supernode IDs, so activating one is a single bit set.
type activationPlan struct {
	// Per-node tables (indexed by node ID).
	succStart []int32
	succSlot  []int32 // flattened reader-supernode slot lists

	// Activation strategy, decided per node from its successor count.
	activation ActivationMode

	memReadSlots [][]int32 // memory ID -> read-port supernode slots

	// resetSlots maps a reset signal's node ID to the slots of the supernodes
	// holding its registers. Poking a reset signal re-arms those supernodes
	// so the registers recompute their next values the cycle reset deasserts
	// — after reset extraction the signal no longer appears in their
	// expressions, so normal dataflow activation cannot reach them.
	resetSlots map[int32][]int32
}

// buildActivationPlan derives the activation policy for a compiled program
// and partition. resets is the engine's reset grouping (base.resets) and
// supSlot its slot layout.
func buildActivationPlan(p *emit.Program, part *partition.Result, cfg ActivityConfig, resets []resetGroup, supSlot []int32) *activationPlan {
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
		return append(list, supSlot[s])
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
			pl.succSlot = addSup(pl.succSlot, part.SupOf[r])
		}
		pl.succStart[id+1] = int32(len(pl.succSlot))
	}

	// Memory read-port supernodes, activated when a write changes contents.
	pl.memReadSlots = make([][]int32, len(g.Mems))
	for mi, mem := range g.Mems {
		gen++
		for _, rp := range mem.Reads {
			pl.memReadSlots[mi] = addSup(pl.memReadSlots[mi], part.SupOf[rp.ID])
		}
	}

	if len(resets) > 0 {
		pl.resetSlots = map[int32][]int32{}
		for _, rg := range resets {
			gen++
			for _, reg := range rg.regs {
				pl.resetSlots[rg.sig] = addSup(pl.resetSlots[rg.sig], part.SupOf[reg])
			}
		}
	}
	return pl
}

// bytes is the plan's resident size.
func (pl *activationPlan) bytes() int {
	n := 4 * (len(pl.succStart) + len(pl.succSlot))
	for _, slots := range pl.memReadSlots {
		n += 4 * len(slots)
	}
	for _, slots := range pl.resetSlots {
		n += 4*len(slots) + 8
	}
	return n
}

// useBranch is the activation strategy of a node whose reader slots are
// succSlot[lo:hi].
func (pl *activationPlan) useBranch(lo, hi int32) bool {
	switch pl.activation {
	case ActBranch:
		return true
	case ActBranchless:
		return false
	}
	return int(hi-lo) > DefaultBranchlessMax
}

// worker is one worker's private state: its outbox, the slot range of the
// chunk it is sweeping, its pending-register list and stat counters, merged
// serially at end of cycle.
type worker struct {
	e       *Activity
	out     []uint64 // activation outbox, in the active words' space
	dirty   []bool   // chunk index -> out has bits for that chunk
	lo, n   uint32   // current chunk's slots are [lo, lo+n)
	pending []int32  // plan register slots awaiting commit

	nodeEvals    uint64
	activations  uint64
	examinations uint64
	instrs       uint64
}

// PlanActivity builds the essential-signal plan over a compiled program and a
// supernode partition of the same graph, swept by threads workers (< 1 means
// one). Every supernode runs through the flat plan (supPlan), whose stream
// mode decides the kernels.
func PlanActivity(p *emit.Program, part *partition.Result, cfg ActivityConfig, threads int, mode EvalMode) *ActivityPlan {
	threads = max(threads, 1)
	pl := &ActivityPlan{t: newTables(p), part: part, partPrint: part.Fingerprint(), cfg: cfg, threads: threads}

	// chunks[lv][w] lists the supernodes worker w sweeps at level lv,
	// ascending.
	var chunks [][][]int32
	if threads == 1 {
		all := make([]int32, part.Count())
		for s := range all {
			all[s] = int32(s)
		}
		chunks = [][][]int32{{all}}
	} else {
		pl.t.shard = part.Shard(p.Graph, threads, instrWeight(p))
		chunks = pl.t.shard.Chunks
	}
	pl.levels = len(chunks)

	// Slot layout: shard-major, level-minor, each chunk padded to whole
	// words, so no active word is shared between shards or between levels.
	pl.supSlot = make([]int32, part.Count())
	pl.wordLo = make([][]int32, threads)
	var words int32
	for w := 0; w < threads; w++ {
		pl.wordLo[w] = make([]int32, pl.levels+1)
		for lv := range chunks {
			pl.wordLo[w][lv] = words
			for i, s := range chunks[lv][w] {
				pl.supSlot[s] = words*64 + int32(i)
			}
			words += int32(len(chunks[lv][w])+63) / 64
		}
		pl.wordLo[w][pl.levels] = words
	}
	pl.words = words
	pl.slotSup = make([]int32, int(words)*64)
	for i := range pl.slotSup {
		pl.slotSup[i] = -1
	}
	for s, slot := range pl.supSlot {
		pl.slotSup[slot] = int32(s)
	}
	pl.wordChunk = make([]int32, words)
	for w := 0; w < threads; w++ {
		for lv := 0; lv < pl.levels; lv++ {
			for wi := pl.wordLo[w][lv]; wi < pl.wordLo[w][lv+1]; wi++ {
				pl.wordChunk[wi] = int32(w*pl.levels + lv)
			}
		}
	}

	// A supernode's chain runs in the temporary region of the worker whose
	// shard holds it.
	region := make([]int, part.Count())
	for _, chunk := range chunks {
		for w, sups := range chunk {
			for _, s := range sups {
				region[s] = w
			}
		}
	}
	pl.activationPlan = buildActivationPlan(p, part, cfg, pl.t.resets, pl.supSlot)
	pl.plan = buildSupPlan(p, part, pl.activationPlan, mode, region)
	return pl
}

// NewEngine builds an essential-signal engine over the plan.
func (pl *ActivityPlan) NewEngine() Compiled { return pl.newEngine() }

func (pl *ActivityPlan) newEngine() *Activity {
	e := &Activity{
		base:           newBase(pl.t, pl.threads),
		pl:             pl,
		activationPlan: pl.activationPlan,
		plan:           pl.plan,
		active:         make([]uint64, pl.words),
		prev:           make([]uint64, len(pl.plan.track)),
		wprev:          make([]uint64, pl.plan.wideWords),
	}
	pl.plan.stream.CheckMachine(e.m)
	e.ws = make([]*worker, pl.threads)
	for w := range e.ws {
		e.ws[w] = &worker{e: e, out: make([]uint64, pl.words), dirty: make([]bool, pl.threads*pl.levels)}
	}
	e.syncShadows()
	e.pool = newWorkerPool(pl.threads, pl.levels, e.runLevel)
	e.activateAll()
	return e
}

// Bytes is the plan's resident size.
func (pl *ActivityPlan) Bytes() int {
	n := pl.t.bytes() + pl.activationPlan.bytes() + pl.plan.bytes()
	return n + 4*(len(pl.wordChunk)+len(pl.supSlot)+len(pl.slotSup)+len(pl.wordLo)*(pl.levels+1))
}

// Footprint is the size of the plan's stream.
func (pl *ActivityPlan) Footprint() (kernels, records, bytes int) { return pl.plan.stream.Footprint() }

// NewActivity builds an essential-signal engine over its own plan:
// PlanActivity then NewEngine, for callers that build one engine of a
// program.
func NewActivity(p *emit.Program, part *partition.Result, cfg ActivityConfig, threads int, mode EvalMode) *Activity {
	return PlanActivity(p, part, cfg, threads, mode).newEngine()
}

func (e *Activity) activateAll() {
	for _, slot := range e.pl.supSlot {
		e.active[slot>>6] |= uint64(1) << uint(slot&63)
	}
}

// clearActivity empties the active bits, outboxes, dirty flags and pending
// lists — everything but the stat counters a fresh engine starts without.
func (e *Activity) clearActivity() {
	clear(e.active)
	for _, ws := range e.ws {
		clear(ws.out)
		clear(ws.dirty)
		ws.pending = ws.pending[:0]
	}
}

// Reset restores complete power-on state (image, memories, counters) and
// re-arms full evaluation: active bits, outboxes, dirty flags, and pending
// lists all return to their post-construction shape, with no recompilation.
func (e *Activity) Reset() {
	e.resetBase()
	e.syncShadows()
	e.clearActivity()
	e.activateAll()
	for _, ws := range e.ws {
		ws.nodeEvals, ws.activations, ws.examinations, ws.instrs = 0, 0, 0, 0
	}
}

// Poke sets an input and activates its readers when the value changes.
func (e *Activity) Poke(nodeID int, v bitvec.BV) {
	if e.m.Poke(nodeID, v) {
		e.activateReaders(int32(nodeID))
		e.arm(e.resetSlots[int32(nodeID)])
	}
}

// arm sets the active bits of slots directly; only safe while the workers
// are idle (poke, commit, and reset time).
func (e *Activity) arm(slots []int32) {
	for _, slot := range slots {
		e.active[slot>>6] |= uint64(1) << uint(slot&63)
	}
}

// activateReaders arms every reader supernode of a node whose value changed
// outside the sweep (poke, commit, reset), counting the activations.
func (e *Activity) activateReaders(id int32) { e.activateRange(e.succStart[id], e.succStart[id+1]) }

func (e *Activity) activateRange(lo, hi int32) {
	e.arm(e.succSlot[lo:hi])
	e.stats.Activations += uint64(hi - lo)
}

// Step simulates one cycle: all workers sweep their shards level by level,
// then registers, memories, and resets commit serially.
func (e *Activity) Step() {
	e.stats.Cycles++
	e.pool.cycle()
	for _, ws := range e.ws {
		e.stats.NodeEvals += ws.nodeEvals
		e.stats.Activations += ws.activations
		e.stats.Examinations += ws.examinations
		e.countInstrs(ws.instrs)
		ws.nodeEvals, ws.activations, ws.examinations, ws.instrs = 0, 0, 0, 0
	}
	e.commit()
	e.sampleTrace()
}

// runLevel sweeps worker w's chunk of level lv. The worker first drains
// every outbox marked dirty for its chunk (all writers finished strictly
// earlier levels, so the merge is race-free), then applies the multi-bit
// check to the merged words. Clean outboxes — the common case on idle
// designs — are skipped entirely.
//
// The scan re-reads each active word until it drains rather than working on
// a snapshot: a supernode can activate a later slot of the chunk being
// swept — including a later bit of the same word — and the re-read picks it
// up. Activation targets never precede their
// source in slot order (chunks are sorted in topological supernode order), so
// the forward scan misses nothing.
func (e *Activity) runLevel(w, lv int) {
	ws, pl := e.ws[w], e.pl
	lo, hi := pl.wordLo[w][lv], pl.wordLo[w][lv+1]
	if lo == hi {
		return
	}
	ws.lo, ws.n = uint32(lo)<<6, uint32(hi-lo)<<6
	chunk := int32(w*pl.levels + lv)
	for _, u := range e.ws {
		if !u.dirty[chunk] {
			continue
		}
		u.dirty[chunk] = false
		for wi := lo; wi < hi; wi++ {
			e.active[wi] |= u.out[wi]
			u.out[wi] = 0
		}
	}
	for wi := lo; wi < hi; wi++ {
		if pl.cfg.MultiBitCheck {
			// Listing 4: one test clears 64 bits.
			ws.examinations++
			for {
				word := e.active[wi]
				if word == 0 {
					break
				}
				b := bits.TrailingZeros64(word)
				e.active[wi] &^= uint64(1) << uint(b)
				ws.examinations++
				ws.evalSupernode(pl.slotSup[int(wi)<<6+b])
			}
		} else {
			for b := 0; b < 64; b++ {
				s := pl.slotSup[int(wi)<<6+b]
				if s < 0 {
					break // padding tail; real slots are packed low
				}
				ws.examinations++
				if mask := uint64(1) << uint(b); e.active[wi]&mask != 0 {
					e.active[wi] &^= mask
					ws.evalSupernode(s)
				}
			}
		}
	}
}

// evalSupernode runs one supernode's chain, then shadow-compares its
// tracked members, activating the readers of each that changed, and queues
// its registers whose next value differs.
func (ws *worker) evalSupernode(s int32) {
	e := ws.e
	pl := e.plan
	st := e.m.State
	r, end := pl.sweep(e.m, s)
	ws.nodeEvals += uint64(r.nodes)
	ws.instrs += uint64(r.instrs)
	track, prev := pl.track[r.track:end.track], e.prev[r.track:end.track]
	prev = prev[:len(track)]
	for i := range track {
		t := &track[i]
		v := st[t.off]
		ws.activate(t.succ, t.succEnd, t.branch, v^prev[i])
		prev[i] = v
	}
	for i := r.wide; i < end.wide; i++ {
		t := &pl.wide[i]
		ws.activate(t.succ, t.succEnd, t.branch, wideDiff(st, e.wprev, t))
	}
	ws.pending = pl.queueRegs(st, r.reg, end.reg, ws.pending)
}

// activate applies an activation strategy to the reader slots
// succSlot[start:end], given the XOR difference of a value's old and new
// words. A slot inside the chunk the worker is sweeping goes straight into
// the active words, which the worker owns for the whole level and re-reads
// as it scans forward; any other slot sits in a strictly later level, so it
// goes into the worker's outbox and marks its chunk dirty for the owner to
// merge. The branchless path marks dirty even for a zero mask (by design: it
// exists to avoid the data-dependent branch); a spurious dirty flag only
// costs the owner one clean-range scan, never correctness.
func (ws *worker) activate(start, end int32, branch bool, diff uint64) {
	if branch && diff == 0 {
		return
	}
	// Branchless: mask is all-ones iff diff != 0.
	m := uint64(0) - ((diff | -diff) >> 63)
	e := ws.e
	for _, slot := range e.succSlot[start:end] {
		bit := uint64(1) << uint(slot&63) & m
		if uint32(slot)-ws.lo < ws.n { // lo <= slot < lo+n, one compare
			e.active[slot>>6] |= bit
			continue
		}
		ws.out[slot>>6] |= bit
		ws.dirty[e.pl.wordChunk[slot>>6]] = true
	}
	ws.activations += uint64(end - start)
}

// commit batches register and memory commits at end of cycle, then runs the
// reset slow path — all serial, while the workers are parked.
func (e *Activity) commit() {
	st := e.m.State
	for _, ws := range e.ws {
		for _, ri := range ws.pending {
			g := &e.plan.regs[ri]
			g.commit(st)
			e.stats.RegCommits++
			e.activateRange(g.succ, g.succEnd)
		}
		ws.pending = ws.pending[:0]
	}

	// Memory writes; content changes re-arm the read ports.
	e.memScratch = e.commitWrites(e.memScratch[:0])
	for _, memID := range e.memScratch {
		e.arm(e.memReadSlots[memID])
	}

	// Reset slow path: one check per reset *signal* instead of one per
	// register with a reset port (paper Listing 6).
	e.applyResets(e.activateReaders)
}

// Close shuts down the worker goroutines and blocks until every one has
// exited (with one worker there are none). It must not be called
// concurrently with Step; calling it more than once is safe.
func (e *Activity) Close() { e.pool.Close() }

func wordsEqual(st []uint64, a, b, w int32) bool {
	for i := int32(0); i < w; i++ {
		if st[a+i] != st[b+i] {
			return false
		}
	}
	return true
}
