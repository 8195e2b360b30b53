package engine

import (
	"math/bits"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/ir"
	"gsim/internal/partition"
)

// ParallelActivity is the multi-threaded essential-signal engine (GSIMMT):
// the Activity engine's per-supernode active bits combined with persistent
// workers and level barriers (workerPool).
//
// Supernodes are levelized over the dependence condensation and distributed
// across persistent worker shards (partition.Result.Shard). Each (shard,
// level) chunk owns a private, word-aligned range of the active-bit array, so
// the Listing-4 multi-bit check runs per shard with no sharing: a worker
// scans exactly its own words. Intra-cycle activations always target strictly
// later levels (dependence edges cannot stay within a level), so workers
// publish them into per-worker outbox masks that the owning shard OR-merges
// into its active words at the level barrier — never touching a word another
// worker can write in the same level. A per-(writer, chunk) dirty flag lets
// the merge skip outboxes that published nothing into the chunk, so an idle
// design no longer pays the O(threads x words) merge every cycle. Register
// and memory commits, external pokes, and the reset slow path run serially
// between cycles, exactly as in Activity.
//
// With ActivityConfig.Coarsen the schedule is the coarsened shard view
// (partition.ShardOpts): consecutive sparse levels merge into one barrier
// span, with every dependence edge inside a merged span co-assigned to one
// shard and ordered inside that shard's chunk. Activations can then target
// the worker's *own current chunk* — a strictly later slot, because chunks
// are sorted in supernode (== topological) order — so activate writes those
// bits straight into the active words (the worker owns them for the whole
// span) and the scan loop re-reads each word until it drains, the same way
// the serial Activity engine picks up same-word activations. Cross-chunk
// targets still go through the outbox and merge at the next barrier.
//
// The engine produces the same state trajectory as Activity and Reference in
// both evaluation modes; the equivalence tests enforce this at several
// thread counts.
type ParallelActivity struct {
	base
	part    *partition.Result
	cfg     ActivityConfig
	threads int
	shard   *partition.ShardView
	levels  int
	pool    *workerPool
	*activationPlan

	// Active-bit storage: one concatenated word array, shard-major then
	// level-minor, each (shard, level) chunk padded to whole words.
	active  []uint64
	out     [][]uint64 // per-worker activation outboxes, same word space
	dirty   [][]bool   // per-worker: chunk index -> outbox has pending bits
	wordLo  [][]int32  // [shard][level] -> first word; [shard][levels] ends it
	supSlot []int32    // supernode -> slot (word*64 + bit)
	slotSup []int32    // slot -> supernode; -1 for padding bits

	// Per-node successor targets (indexed via the embedded plan's
	// succStart): the plan's supernode lists resolved to (word, mask) pairs
	// in the active/outbox word space, plus the owning (shard, level) chunk
	// index for dirty marking.
	succWord  []int32
	succMask  []uint64
	succChunk []int32

	plan *supPlan

	// batches is the per-shard kernel batching fast path (EvalKernel with
	// MultiBitCheck only): for each active word whose supernodes all need no
	// change tracking, their chains pre-concatenated into one sweep. nil
	// when batching is off; a zero full mask marks a non-batchable word.
	batches []wordBatch

	memReadSlots [][]slotMask
	memScratch   []int32
	resetSlots   map[int32][]slotMask

	ws []*paWorker
}

// slotMask addresses one supernode's active bit: active[word] |= mask.
type slotMask struct {
	word int32
	mask uint64
}

// wordBatch is one active word's supernodes concatenated into a single
// chain — the per-shard kernel batching of a (shard, level) chunk.
// A word qualifies when none of its supernodes has change-tracked members
// (no comb or memory-read nodes, so the sweep produces no activations); the
// fast path fires when the word is fully active, replacing per-bit dispatch
// with one chain sweep plus bulk stat accounting, exactly equivalent to
// evaluating the supernodes bit by bit.
type wordBatch struct {
	full   uint64    // mask of populated slots; 0 = word not batchable
	chain  emit.Span // in the plan's stream
	nodes  uint64
	instrs uint64
	sups   []int32 // the populated slots' supernodes; their register slots get the pending check
}

// paWorker is one worker's private state: pending-register list and stat
// counters, merged serially at end of cycle.
type paWorker struct {
	e       *ParallelActivity
	id      int
	chunk   int32    // chunk index currently being swept (w*levels + lv)
	scratch []uint64 // interpreter sweep's old-value buffer; nil in kernel modes
	pending []int32  // plan register slots awaiting commit

	nodeEvals    uint64
	activations  uint64
	examinations uint64
	instrs       uint64
}

// NewParallelActivity builds the multi-threaded essential-signal engine over
// a compiled program and a supernode partition of the same graph. In the
// kernel modes every supernode runs through the flat plan (supPlan);
// EvalInterp selects the per-instruction reference interpreter.
func NewParallelActivity(p *emit.Program, part *partition.Result, cfg ActivityConfig, threads int, mode EvalMode) *ParallelActivity {
	if threads < 1 {
		threads = 1
	}
	if cfg.BranchlessMax == 0 {
		cfg.BranchlessMax = DefaultBranchlessMax
	}
	e := &ParallelActivity{
		base:    newBase(p),
		part:    part,
		cfg:     cfg,
		threads: threads,
	}
	g := p.Graph

	e.shard = part.ShardOpts(g, threads,
		func(id int32) int64 { return int64(p.Code[id].Len()) },
		partition.CoarsenOptions{Enable: cfg.Coarsen, Grain: cfg.CoarsenGrain})
	e.levels = e.shard.Levels
	e.obsLevels = e.shard.Levels
	e.obsOrigLevels = e.shard.OrigLevels
	e.activationPlan = buildActivationPlan(p, part, cfg, e.resets)

	// Slot layout: shard-major, level-minor, each chunk padded to whole
	// words, so no active word is shared between shards or between levels.
	e.supSlot = make([]int32, part.Count())
	e.wordLo = make([][]int32, threads)
	var words int32
	for w := 0; w < threads; w++ {
		e.wordLo[w] = make([]int32, e.levels+1)
		for lv := 0; lv < e.levels; lv++ {
			e.wordLo[w][lv] = words
			chunk := e.shard.Chunks[lv][w]
			for i, s := range chunk {
				e.supSlot[s] = words*64 + int32(i)
			}
			words += int32(len(chunk)+63) / 64
		}
		e.wordLo[w][e.levels] = words
	}
	e.active = make([]uint64, words)
	e.slotSup = make([]int32, int(words)*64)
	for i := range e.slotSup {
		e.slotSup[i] = -1
	}
	for s, slot := range e.supSlot {
		e.slotSup[slot] = int32(s)
	}
	e.out = make([][]uint64, threads)
	e.dirty = make([][]bool, threads)
	for w := range e.out {
		e.out[w] = make([]uint64, words)
		e.dirty[w] = make([]bool, threads*e.levels)
	}
	// wordChunk maps an active word to its owning (shard, level) chunk index
	// (shard*levels + level), the granule of outbox dirty tracking.
	wordChunk := make([]int32, words)
	for w := 0; w < threads; w++ {
		for lv := 0; lv < e.levels; lv++ {
			for wi := e.wordLo[w][lv]; wi < e.wordLo[w][lv+1]; wi++ {
				wordChunk[wi] = int32(w*e.levels + lv)
			}
		}
	}

	// Resolve the plan's supernode targets to (word, mask) pairs in this
	// engine's active/outbox word space.
	e.succWord = make([]int32, len(e.succSups))
	e.succMask = make([]uint64, len(e.succSups))
	e.succChunk = make([]int32, len(e.succSups))
	for i, s := range e.succSups {
		slot := e.supSlot[s]
		e.succWord[i] = slot >> 6
		e.succMask[i] = uint64(1) << uint(slot&63)
		e.succChunk[i] = wordChunk[slot>>6]
	}
	e.memReadSlots = make([][]slotMask, len(e.memReadSups))
	for mi, sups := range e.memReadSups {
		for _, s := range sups {
			e.memReadSlots[mi] = append(e.memReadSlots[mi], e.slotOf(s))
		}
	}
	if e.resetRegSups != nil {
		e.resetSlots = map[int32][]slotMask{}
		for sig, sups := range e.resetRegSups {
			for _, s := range sups {
				e.resetSlots[sig] = append(e.resetSlots[sig], e.slotOf(s))
			}
		}
	}

	e.plan = buildSupPlan(p, e.m, e.activationPlan, mode)
	if mode == EvalKernel && cfg.MultiBitCheck {
		e.batches = e.buildWordBatches()
		e.plan.stream.Trim()
	}
	e.ws = make([]*paWorker, threads)
	for w := 0; w < threads; w++ {
		e.ws[w] = &paWorker{e: e, id: w}
		if !e.plan.kernel {
			e.ws[w].scratch = make([]uint64, e.maxWords)
		}
	}
	e.pool = newWorkerPool(threads, e.levels, e.runLevel)

	e.activateAll()
	return e
}

// buildWordBatches derives the per-shard batching table: one entry per
// active word, populated when every supernode in the word is free of
// change-tracked slots. Chunk padding guarantees a word never spans two
// (shard, level) chunks, so a batch is always a slice of one chunk and the
// sweep order (ascending slot == ascending supernode, a dependence order
// even inside coarsened chunks) matches per-bit dispatch exactly. The
// batch's chain is compiled whole from the member nodes rather than stitched
// from the per-supernode chains, so superinstruction fusion reaches across
// supernode boundaries inside the word.
func (e *ParallelActivity) buildWordBatches() []wordBatch {
	batches := make([]wordBatch, len(e.active))
	for wi := range batches {
		ba := &batches[wi]
		var sups []int32
		ok := true
		for b := 0; b < 64; b++ {
			s := e.slotSup[wi<<6+b]
			if s < 0 {
				continue // padding tail
			}
			sups = append(sups, s)
			ba.full |= uint64(1) << uint(b)
			if r, end := &e.plan.sups[s], &e.plan.sups[s+1]; r.track != end.track || r.wide != end.wide {
				ok = false
			}
		}
		if !ok || len(sups) == 0 {
			*ba = wordBatch{}
			continue
		}
		ba.sups = sups
		var ids []int32
		for _, s := range sups {
			ids = append(ids, e.members[e.supStart[s]:e.supStart[s+1]]...)
			ba.nodes += uint64(e.plan.sups[s].nodes)
			ba.instrs += uint64(e.plan.sups[s].instrs)
		}
		ba.chain = e.plan.stream.AppendNodes(ids, true)
	}
	return batches
}

func (e *ParallelActivity) slotOf(sup int32) slotMask {
	slot := e.supSlot[sup]
	return slotMask{word: slot >> 6, mask: uint64(1) << uint(slot&63)}
}

func (e *ParallelActivity) activateAll() {
	for _, slot := range e.supSlot {
		e.active[slot>>6] |= uint64(1) << uint(slot&63)
	}
}

// Reset restores complete power-on state (image, memories, counters) and
// re-arms full evaluation: active bits, outboxes, dirty flags, and pending
// lists all return to their post-construction shape, with no recompilation.
func (e *ParallelActivity) Reset() {
	e.resetBase()
	e.plan.syncShadows(e.m.State)
	for i := range e.active {
		e.active[i] = 0
	}
	e.activateAll()
	for w := range e.out {
		out := e.out[w]
		for i := range out {
			out[i] = 0
		}
		dirty := e.dirty[w]
		for i := range dirty {
			dirty[i] = false
		}
	}
	for _, ws := range e.ws {
		ws.pending = ws.pending[:0]
		ws.nodeEvals, ws.activations, ws.examinations, ws.instrs = 0, 0, 0, 0
	}
}

// Poke sets an input and activates its readers when the value changes.
func (e *ParallelActivity) Poke(nodeID int, v bitvec.BV) {
	if e.m.Poke(nodeID, v) {
		e.activateReaders(int32(nodeID))
		for _, sm := range e.resetSlots[int32(nodeID)] {
			e.active[sm.word] |= sm.mask
		}
	}
}

// activateReaders sets reader-supernode active bits directly; only safe while
// the workers are idle (poke, commit, and reset time).
func (e *ParallelActivity) activateReaders(id int32) {
	e.activateRange(e.succStart[id], e.succStart[id+1])
}

func (e *ParallelActivity) activateRange(lo, hi int32) {
	for k := lo; k < hi; k++ {
		e.active[e.succWord[k]] |= e.succMask[k]
	}
	e.stats.Activations += uint64(hi - lo)
}

// Step simulates one cycle: all workers sweep their shards level by level,
// then registers, memories, and resets commit serially.
func (e *ParallelActivity) Step() {
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
// a snapshot: under coarsening a supernode can activate a later slot of the
// chunk currently being swept — including a later bit of the same word —
// and the re-read picks it up, exactly like the serial Activity loop.
// Activation targets never precede their source in slot order (chunks are
// sorted in topological supernode order), so the forward scan misses
// nothing. Without coarsening no one writes a word mid-scan and the loop
// degenerates to the old snapshot behavior, examinations included.
func (e *ParallelActivity) runLevel(w, lv int) {
	ws := e.ws[w]
	lo, hi := e.wordLo[w][lv], e.wordLo[w][lv+1]
	if lo == hi {
		return
	}
	chunk := int32(w*e.levels + lv)
	ws.chunk = chunk
	for u := range e.out {
		du := e.dirty[u]
		if !du[chunk] {
			continue
		}
		du[chunk] = false
		out := e.out[u]
		for wi := lo; wi < hi; wi++ {
			e.active[wi] |= out[wi]
			out[wi] = 0
		}
	}
	for wi := lo; wi < hi; wi++ {
		if e.batches != nil {
			// Batch supernodes are track-free: the sweep publishes no
			// activations, so the word cannot refill mid-batch.
			if ba := &e.batches[wi]; ba.full != 0 && e.active[wi] == ba.full {
				e.active[wi] = 0
				ws.runBatch(ba)
				continue
			}
		}
		if e.cfg.MultiBitCheck {
			// Listing 4 applied per shard: one test clears 64 bits.
			ws.examinations++
			for {
				word := e.active[wi]
				if word == 0 {
					break
				}
				b := bits.TrailingZeros64(word)
				e.active[wi] &^= uint64(1) << uint(b)
				ws.examinations++
				ws.evalSupernode(e.slotSup[int(wi)<<6+b])
			}
		} else {
			for b := 0; b < 64; b++ {
				s := e.slotSup[int(wi)<<6+b]
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

// runBatch sweeps a fully-active word's concatenated supernode chains in one
// pass. Stat accounting mirrors the per-bit path exactly: one examination
// for the word test plus one per set bit, then the pre-summed node and
// instruction counts; the supernodes have no tracked slots, so the only
// per-member bookkeeping left is the register pending check.
func (ws *paWorker) runBatch(ba *wordBatch) {
	ws.examinations += 1 + uint64(len(ba.sups))
	ws.e.plan.stream.Run(ba.chain)
	ws.nodeEvals += ba.nodes
	ws.instrs += ba.instrs
	pl := ws.e.plan
	for _, s := range ba.sups {
		ws.pending = pl.queueRegs(ws.e.m.State, pl.sups[s].reg, pl.sups[s+1].reg, ws.pending)
	}
}

// evalSupernode evaluates one supernode's members through the flat plan or,
// under EvalInterp, the reference interpreter sweep. Both mirror
// Activity.evalSupernode with worker-private side state.
func (ws *paWorker) evalSupernode(s int32) {
	e := ws.e
	pl := e.plan
	st := e.m.State
	if pl.kernel {
		r, end := pl.sweep(s)
		ws.nodeEvals += uint64(r.nodes)
		ws.instrs += uint64(r.instrs)
		for i := r.track; i < end.track; i++ {
			t := &pl.track[i]
			v := st[t.off]
			ws.activate(t.succ, t.succEnd, t.branch, v^t.prev)
			t.prev = v
		}
		for i := r.wide; i < end.wide; i++ {
			t := &pl.wide[i]
			ws.activate(t.succ, t.succEnd, t.branch, pl.wideDiff(st, t))
		}
		ws.pending = pl.queueRegs(st, r.reg, end.reg, ws.pending)
		return
	}
	p := e.m.Prog
	ri := pl.sups[s].reg // the supernode's register slots, in member order
	for k := e.supStart[s]; k < e.supStart[s+1]; k++ {
		id := e.members[k]
		code := p.Code[id]
		ws.nodeEvals++
		ws.instrs += uint64(code.Len())
		switch e.kind[id] {
		case ir.KindReg:
			e.m.Exec(code.Start, code.End)
			ws.pending = pl.queueRegs(st, ri, ri+1, ws.pending)
			ri++
		case ir.KindMemWrite:
			e.m.Exec(code.Start, code.End)
		default: // comb, memread
			off, w := p.Off[id], p.WordsOf[id]
			old := ws.scratch[:w]
			copy(old, st[off:off+w])
			e.m.Exec(code.Start, code.End)
			var diff uint64
			for i := int32(0); i < w; i++ {
				diff |= old[i] ^ st[off+i]
			}
			lo, hi := e.succStart[id], e.succStart[id+1]
			ws.activate(lo, hi, e.useBranch(lo, hi), diff)
		}
	}
}

// activate publishes successor activations (the plan's successor range
// [start, end), resolved to this engine's word space) into the worker's
// outbox and marks the target chunks dirty. Targets always sit in strictly later
// levels, so the owning shard will merge them before examining the
// corresponding words — except, under coarsening, targets inside the
// worker's *own current chunk* (a dependence edge folded into the merged
// span): those bits go straight into the active words, which the worker owns
// for the whole span and re-reads as it scans forward. No other worker can
// hold that chunk, so the write is race-free; without coarsening the
// same-chunk case never fires. The branchless path marks dirty even for a
// zero mask (by design: it exists to avoid the data-dependent branch); a
// spurious dirty flag only costs the owner one clean-range scan, never
// correctness.
func (ws *paWorker) activate(start, end int32, branch bool, diff uint64) {
	e := ws.e
	out := e.out[ws.id]
	dirty := e.dirty[ws.id]
	if branch {
		if diff != 0 {
			for k := start; k < end; k++ {
				if e.succChunk[k] == ws.chunk {
					e.active[e.succWord[k]] |= e.succMask[k]
					continue
				}
				out[e.succWord[k]] |= e.succMask[k]
				dirty[e.succChunk[k]] = true
			}
			ws.activations += uint64(end - start)
		}
		return
	}
	// Branchless: mask is all-ones iff diff != 0.
	m := uint64(0) - ((diff | -diff) >> 63)
	for k := start; k < end; k++ {
		if e.succChunk[k] == ws.chunk {
			e.active[e.succWord[k]] |= e.succMask[k] & m
			continue
		}
		out[e.succWord[k]] |= e.succMask[k] & m
		dirty[e.succChunk[k]] = true
	}
	ws.activations += uint64(end - start)
}

// commit batches register and memory commits at end of cycle, then runs the
// reset slow path — all serial, while the workers are parked.
func (e *ParallelActivity) commit() {
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

	e.memScratch = e.commitWrites(e.memScratch[:0])
	for _, memID := range e.memScratch {
		for _, sm := range e.memReadSlots[memID] {
			e.active[sm.word] |= sm.mask
		}
	}

	e.applyResets(e.activateReaders)
}

// Close shuts down the worker goroutines and blocks until every one has
// exited. It must not be called concurrently with Step; calling it more than
// once is safe.
func (e *ParallelActivity) Close() { e.pool.Close() }

// Shard exposes the engine's thread-shard view (chunk membership and weight
// metadata) for diagnostics.
func (e *ParallelActivity) Shard() *partition.ShardView { return e.shard }

// BatchedWords reports how many active words qualified for per-shard kernel
// batching (0 when batching is off: interp/nofuse mode or no MultiBitCheck).
func (e *ParallelActivity) BatchedWords() (batched, total int) {
	for i := range e.batches {
		if e.batches[i].full != 0 {
			batched++
		}
	}
	return batched, len(e.active)
}
