package engine

import (
	"unsafe"

	"gsim/internal/emit"
	"gsim/internal/ir"
	"gsim/internal/partition"
)

// EvalMode is the build mode of an engine plan's stream (emit.Mode): the
// kernels its chains compile to. Engines run every mode through the same
// path, so the mode is a test and benchmark knob, not a product axis.
type EvalMode = emit.Mode

const (
	// EvalKernel (the default) is the product: fused kernels over operand
	// records, opcode dispatch resolved at build time, width-class
	// kernels for the 65-128-bit range.
	EvalKernel = emit.Fused
	// EvalInterp runs each chain, as one window of verbatim instructions,
	// through the reference switch-dispatch interpreter (emit.Machine.Exec's
	// loop), the semantic baseline the kernels are pinned against.
	EvalInterp = emit.Interp
	// EvalKernelNoFuse is EvalKernel with the fusion walk switched off, the
	// measurable baseline for fusion (BenchmarkKernelVsInterp's kernel vs
	// kernel-nofuse rows).
	EvalKernelNoFuse = emit.Unfused
)

// supPlan is the flat, pre-resolved form of every supernode, built once per
// ActivityPlan and shared by every engine of it.
// All supernode chains are appended to one emit.Stream; sups[s] and
// sups[s+1] bracket supernode s's kernels in it and its ranges in the slot
// arrays (CSR, with a sentinel record at the end), so evaluating a supernode
// touches one small record and a few contiguous runs instead of a separately
// allocated slice bundle.
//
// Change detection is a shadow compare (paper Listing 2: if new != old,
// activate). Each engine keeps one shadow word per track slot (Activity.prev,
// indexed like track) and the wide slots' words (Activity.wprev). A member's
// value slot is written only by that member's own instructions, so between
// evaluations the shadow equals the state word: nothing is parked before the
// sweep, and after it the slot compares, re-syncs, and activates through
// successor ranges resolved at build time. Anything that rewrites the state
// image wholesale (Reset, RestoreState) must call syncShadows. Fusion across
// member boundaries inside a chain is safe for the same reason: a fused
// kernel performs exactly the stores of its source instructions, in order.
//
// Members with no reader supernode get no slot. The evaluation mode
// changes only the stream's kernels: the slots, and so the activations and
// stat counters, are the same in every mode.
type supPlan struct {
	sups      []supRec
	stream    *emit.Stream
	track     []trackSlot
	wide      []wideSlot
	wideWords int32 // shadow words the wide slots need
	regs      []regSlot
}

// supRec is one supernode: its first stream record, the first index of
// each of its ranges (the next record's fields end them) and its pre-summed
// stat contributions.
type supRec struct {
	rec, k, track, wide, reg int32
	instrs, nodes            uint32
}

// trackSlot is one change-tracked 1-word member (comb or memory read port):
// its state word, and its activation strategy and successor range in the
// successor arrays (activationPlan.succSlot space).
type trackSlot struct {
	off           int32
	succ, succEnd int32
	branch        bool
}

// wideSlot is the rare multi-word change-tracked member; its shadow words
// are an engine's wprev[prev : prev+w].
type wideSlot struct {
	off, w, prev  int32
	succ, succEnd int32
	branch        bool
}

// regSlot is one register: current and next value words and the readers its
// commit activates.
type regSlot struct {
	cur, next, w  int32
	succ, succEnd int32
}

// buildSupPlan flattens the partition's supernodes under the activation
// plan; supernode s's chain runs in temporary region region[s].
func buildSupPlan(p *emit.Program, part *partition.Result, ap *activationPlan, mode EvalMode, region []int) *supPlan {
	nSups := part.Count()
	pl := &supPlan{sups: make([]supRec, nSups+1), stream: emit.NewStream(p, mode)}
	for s := range pl.sups {
		r := &pl.sups[s]
		r.track, r.wide, r.reg = int32(len(pl.track)), int32(len(pl.wide)), int32(len(pl.regs))
		var members []int32
		rg := 0
		if s < nSups {
			members, rg = part.Members[s], region[s]
		}
		// The sentinel's empty chain marks where the last one ends.
		sp := pl.stream.AppendNodes(members, rg, nil)
		r.rec, r.k = sp.Rec, sp.K
		if s == nSups {
			break // sentinel
		}
		for _, id := range members {
			code := p.Code[id]
			r.instrs += uint32(code.Len())
			r.nodes++
			lo, hi := ap.succStart[id], ap.succStart[id+1]
			switch kind := p.Graph.Nodes[id].Kind; {
			case kind == ir.KindReg:
				pl.regs = append(pl.regs, regSlot{cur: p.Off[id], next: p.NextOff[id], w: p.WordsOf[id], succ: lo, succEnd: hi})
			case kind == ir.KindMemWrite || lo == hi:
				// write-port expressions land in dedicated slots the commit
				// phase reads; a value nobody reads activates nothing
			case p.WordsOf[id] == 1:
				pl.track = append(pl.track, trackSlot{off: p.Off[id], succ: lo, succEnd: hi, branch: ap.useBranch(lo, hi)})
			default:
				w := p.WordsOf[id]
				pl.wide = append(pl.wide, wideSlot{off: p.Off[id], w: w, prev: pl.wideWords, succ: lo, succEnd: hi, branch: ap.useBranch(lo, hi)})
				pl.wideWords += w
			}
		}
	}
	// Append growth leaves up to a quarter of each array unused; the plan
	// lives as long as its design, so trim to size.
	pl.stream.Trim()
	pl.track, pl.wide = clip(pl.track), clip(pl.wide)
	pl.regs = clip(pl.regs)
	return pl
}

func clip[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// bytes is the plan's resident size: its stream and slot tables.
func (pl *supPlan) bytes() int {
	_, _, b := pl.stream.Footprint()
	return b + len(pl.sups)*int(unsafe.Sizeof(supRec{})) + len(pl.track)*int(unsafe.Sizeof(trackSlot{})) +
		len(pl.wide)*int(unsafe.Sizeof(wideSlot{})) + len(pl.regs)*int(unsafe.Sizeof(regSlot{}))
}

// syncShadows re-derives every shadow word from the state image.
func (e *Activity) syncShadows() {
	st, pl := e.m.State, e.plan
	for i := range pl.track {
		e.prev[i] = st[pl.track[i].off]
	}
	for i := range pl.wide {
		t := &pl.wide[i]
		copy(e.wprev[t.prev:t.prev+t.w], st[t.off:t.off+t.w])
	}
}

// sweep runs supernode s's chain on machine m and returns the records
// bracketing its slot ranges.
func (pl *supPlan) sweep(m *emit.Machine, s int32) (r, end *supRec) {
	r, end = &pl.sups[s], &pl.sups[s+1]
	pl.stream.Run(m, emit.Span{K: r.k, KEnd: end.k, Rec: r.rec})
	return r, end
}

// wideDiff returns the XOR difference of a wide slot against its shadow
// words in wprev and re-syncs them.
func wideDiff(st, wprev []uint64, t *wideSlot) (diff uint64) {
	for i := int32(0); i < t.w; i++ {
		v := st[t.off+i]
		diff |= v ^ wprev[t.prev+i]
		wprev[t.prev+i] = v
	}
	return diff
}

// queueRegs appends to pending the registers of regs[lo:hi] whose next value
// differs from the current one. A supernode is evaluated at most once per
// Step (activations only ever target later supernodes), so a register is
// queued at most once per cycle.
func (pl *supPlan) queueRegs(st []uint64, lo, hi int32, pending []int32) []int32 {
	for i := lo; i < hi; i++ {
		if g := &pl.regs[i]; st[g.cur] != st[g.next] || g.w > 1 && !wordsEqual(st, g.cur, g.next, g.w) {
			pending = append(pending, i)
		}
	}
	return pending
}

// commit copies the register's next value over its current one.
func (g *regSlot) commit(st []uint64) {
	if g.w == 1 {
		st[g.cur] = st[g.next]
		return
	}
	copy(st[g.cur:g.cur+g.w], st[g.next:g.next+g.w])
}
