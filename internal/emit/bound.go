package emit

import (
	"fmt"
	"math/bits"

	"gsim/internal/bitvec"
)

// Bound chains: the one compiled form every kernel-mode engine executes. A
// bound chain is compiled for ONE machine: opcode dispatch, widths, shift
// amounts and masks are resolved at build time, every operand becomes a
// *uint64 into that machine's state image, every closure takes no arguments,
// and (unless the caller turns it off) superinstruction fusion applies along
// the way; 2-word width classes always do. This is the closest a
// closure-threaded interpreter gets to GSIM's emitted straight-line C++ —
// no dispatch, no operand decode, no bounds checks, no argument traffic.
//
// Safety: a machine's State and Mems backing arrays are allocated once in
// NewMachine and mutated only in place (Reset and Poke copy into them), so
// the pre-resolved pointers stay valid for the machine's lifetime. Engines
// build chains against their own machine at construction time.

// BoundFn is one bound superinstruction: a no-argument closure over
// pre-resolved state pointers.
type BoundFn func()

// CompileNodesBound compiles the given nodes' code ranges, concatenated in
// the order given, into one bound chain (fused when fuse is set). The order
// is the execution order of the chain and must be a dependence order of the
// nodes — engines pass chunk member lists in ascending node/supernode ID,
// which the partition package guarantees is topological, including inside
// coarsened (level-merged) chunks. Fusion applies across node boundaries:
// adjacent instructions of different nodes fuse exactly like intra-node
// pairs, which is bit-identical by the same argument (a fused closure
// performs both stores in order).
func (p *Program) CompileNodesBound(m *Machine, ids []int32, fuse bool) []BoundFn {
	var chain []Instr
	for _, id := range ids {
		r := p.Code[id]
		chain = append(chain, p.Instrs[r.Start:r.End]...)
	}
	return p.AppendChainBound(make([]BoundFn, 0, len(chain)), m, chain, fuse)
}

// CompileChainBound compiles an instruction chain into its bound form for
// machine m: superinstruction fusion over adjacent windows (generated
// matchers from the rule table, widest window first — a triple beats the
// pair it contains), width-class specialization, operand pointers resolved
// into m's state image. The chain need not be contiguous in the program.
func (p *Program) CompileChainBound(m *Machine, ins []Instr) []BoundFn {
	return p.AppendChainBound(make([]BoundFn, 0, len(ins)), m, ins, true)
}

// AppendChainBound appends the bound form of ins to fns, so a caller can lay
// many chains out in one array. With fuse false the fusion walk is skipped —
// exactly one closure per instruction, the kernel-nofuse baseline fusion is
// measured against.
func (p *Program) AppendChainBound(fns []BoundFn, m *Machine, ins []Instr, fuse bool) []BoundFn {
	if !fuse {
		for _, in := range ins {
			fns = append(fns, compileKernelBound(m, in))
		}
		return fns
	}
	fusionWalk(ins, func(i int, r FuseRule) {
		switch r.Arity() {
		case 3:
			fns = append(fns, compileFuse3(m, ins[i], ins[i+1], ins[i+2], r))
		case 2:
			fns = append(fns, compileFuse2(m, ins[i], ins[i+1], r))
		default:
			fns = append(fns, compileKernelBound(m, ins[i]))
		}
	})
	return fns
}

// compileKernelBound dispatches one instruction on width class, bound form.
func compileKernelBound(m *Machine, in Instr) BoundFn {
	if in.DW > 64 || in.AW > 64 || in.BW > 64 {
		if fn := compile2WBound(m, in); fn != nil {
			return fn
		}
		wide := in
		return func() { m.execWide(&wide) }
	}
	return compileNarrowBound(m, in)
}

// compileNarrowBound builds the specialized single-word closure: masks and
// shift amounts baked in, mirroring execNarrow exactly (the chain property
// tests and the cross-engine lockstep suites pin it against the interpreter).
// Pure opcodes come from their generated value rows; the memory read needs
// the machine's memory arrays.
func compileNarrowBound(m *Machine, in Instr) BoundFn {
	if fn := compilePureBound(m.State, in); fn != nil {
		return fn
	}
	if in.Op == CMemRead {
		pd, pa, dm := &m.State[in.D], &m.State[in.A], mask(in.DW)
		mem, depth, wp := memPort(m, in.Lo)
		return func() { *pd = readMem(mem, *pa, depth, wp) & dm }
	}
	// Panic rather than fall back, so the opcode coverage sweep catches a new
	// opcode added without a kernel.
	panic(fmt.Sprintf("emit: no bound kernel for opcode %d", in.Op))
}

// b2u converts a comparison result to the canonical 0/1 word.
func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// divz and remz are unsigned division and remainder with the IR's result
// for a zero divisor: 0.
func divz(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func remz(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	return a % b
}

// pick is the mux: x when the selector s is non-zero, else y.
func pick(s, x, y uint64) uint64 {
	if s != 0 {
		return x
	}
	return y
}

// memPort binds memory mi's read port: its words, its depth in elements and
// its words per element.
func memPort(m *Machine, mi int32) ([]uint64, uint64, int32) {
	spec := &m.Prog.Mems[mi]
	return m.Mems[mi], uint64(spec.Depth), spec.WordsPer
}

// readMem reads the low word of element addr of a memory port bound by
// memPort; 0 out of range.
func readMem(mem []uint64, addr, depth uint64, wp int32) uint64 {
	if addr < depth {
		return mem[int32(addr)*wp]
	}
	return 0
}

// bsrc2 pre-resolves a two-word operand read: low pointer, high pointer and
// the zero-extension mask (the high pointer aliases the low word with a zero
// mask for one-word operands, keeping the read branchless).
func bsrc2(st []uint64, off, w int32) (lo, hi *uint64, hiMask uint64) {
	lo = &st[off]
	hi = lo
	if w > 64 {
		hi = &st[off+1]
		hiMask = ^uint64(0)
	}
	return
}

// compile2WBound builds the two-word width-class closure (see the WidthClass
// doc in wide2.go), or returns nil when the instruction is not in the 2-word
// class; each closure reproduces execWide's result exactly, including the
// top-word mask — the width-class tests pin this on randomized state.
func compile2WBound(m *Machine, in Instr) BoundFn {
	if !is2Word(in) {
		return nil
	}
	st := m.State
	hm := bitvec.TopMask(int(in.DW))
	a0, a1, am := bsrc2(st, in.A, in.AW)
	b0, b1, bm := bsrc2(st, in.B, in.BW)
	switch in.Op {
	case CCopy, CAdd, CSub, CAnd, COr, CXor, CNot, CMux:
		d0, d1 := &st[in.D], &st[in.D+1]
		switch in.Op {
		case CCopy:
			return func() { *d0 = *a0; *d1 = (*a1 & am) & hm }
		case CAdd:
			return func() {
				s0, c := bits.Add64(*a0, *b0, 0)
				*d0 = s0
				*d1 = ((*a1 & am) + (*b1 & bm) + c) & hm
			}
		case CSub:
			return func() {
				s0, br := bits.Sub64(*a0, *b0, 0)
				*d0 = s0
				*d1 = ((*a1 & am) - (*b1 & bm) - br) & hm
			}
		case CAnd:
			return func() { *d0 = *a0 & *b0; *d1 = (*a1 & am) & (*b1 & bm) & hm }
		case COr:
			return func() { *d0 = *a0 | *b0; *d1 = ((*a1 & am) | (*b1 & bm)) & hm }
		case CXor:
			return func() { *d0 = *a0 ^ *b0; *d1 = ((*a1 & am) ^ (*b1 & bm)) & hm }
		case CNot:
			return func() { *d0 = ^*a0; *d1 = ^(*a1 & am) & hm }
		default: // CMux
			psel := &st[in.A]
			c0, c1, cm := bsrc2(st, in.C, in.BW)
			return func() {
				lo, hi := *c0, *c1&cm
				if *psel != 0 {
					lo, hi = *b0, *b1&bm
				}
				*d0 = lo
				*d1 = hi & hm
			}
		}
	case CEq:
		pd := &st[in.D]
		return func() {
			diff := (*a0 ^ *b0) | ((*a1 & am) ^ (*b1 & bm))
			*pd = b2u(diff == 0)
		}
	case CNeq:
		pd := &st[in.D]
		return func() {
			diff := (*a0 ^ *b0) | ((*a1 & am) ^ (*b1 & bm))
			*pd = b2u(diff != 0)
		}
	}
	return nil
}

// Fused-window constructors. compileFuse2/compileFuse3 (generated from the
// rule table in internal/emit/rules) dispatch each matched window to one of
// these; every constructor builds a single bound closure that stores every
// source instruction's result in original order, so state-slot aliasing
// between the window's instructions can never change the outcome relative
// to running them back to back. These are the specialized constructors; the
// generic fuseAlu* ones are generated into fuse_gen.go from the value table,
// producer and consumer both inlined into the one closure.

// maskShiftOf returns the right-shift a mask consumer (copy or bits)
// applies: bits slices from its Lo, copy truncates in place.
func maskShiftOf(b Instr) uint {
	if b.Op == CBits {
		return uint(b.Lo)
	}
	return 0
}

// fuseCopyMux: a copy feeding any operand of a mux.
func fuseCopyMux(m *Machine, a, b Instr) BoundFn {
	st := m.State
	pad, paa := &st[a.D], &st[a.A]
	adm := mask(a.DW)
	psel, pbb, pbc, pbd := &st[b.A], &st[b.B], &st[b.C], &st[b.D]
	bdm := mask(b.DW)
	return func() {
		*pad = *paa & adm
		r := *pbc
		if *psel != 0 {
			r = *pbb
		}
		*pbd = r & bdm
	}
}

// fuseCmpMux: a comparison result selecting a mux.
func fuseCmpMux(m *Machine, a, b Instr) BoundFn {
	return compileCmpMuxBound(m.State, a, b)
}

// fuseAddMask: an add immediately truncated or sliced.
func fuseAddMask(m *Machine, a, b Instr) BoundFn {
	st := m.State
	pad, paa, pab := &st[a.D], &st[a.A], &st[a.B]
	adm := mask(a.DW)
	pbd := &st[b.D]
	bdm := mask(b.DW)
	sh := maskShiftOf(b)
	return func() {
		t := (*paa + *pab) & adm
		*pad = t
		*pbd = (t >> sh) & bdm
	}
}

// fuseSubMask: the subtract twin of fuseAddMask.
func fuseSubMask(m *Machine, a, b Instr) BoundFn {
	st := m.State
	pad, paa, pab := &st[a.D], &st[a.A], &st[a.B]
	adm := mask(a.DW)
	pbd := &st[b.D]
	bdm := mask(b.DW)
	sh := maskShiftOf(b)
	return func() {
		t := (*paa - *pab) & adm
		*pad = t
		*pbd = (t >> sh) & bdm
	}
}

// fuseAndEqz: a bitwise and feeding an equality/inequality test or an
// or-reduction (the and-eqz and and-orr rules both land here; the consumer
// opcode picks the tail).
func fuseAndEqz(m *Machine, a, b Instr) BoundFn {
	st := m.State
	pad, paa, pab := &st[a.D], &st[a.A], &st[a.B]
	adm := mask(a.DW)
	pbd := &st[b.D]
	switch b.Op {
	case CEq:
		pother := pbb2(st, a, b)
		return func() {
			t := (*paa & *pab) & adm
			*pad = t
			*pbd = b2u(t == *pother)
		}
	case CNeq:
		pother := pbb2(st, a, b)
		return func() {
			t := (*paa & *pab) & adm
			*pad = t
			*pbd = b2u(t != *pother)
		}
	default: // COrR
		return func() {
			t := (*paa & *pab) & adm
			*pad = t
			*pbd = b2u(t != 0)
		}
	}
}

// fuseMuxMux: a mux feeding an arm of the next mux.
func fuseMuxMux(m *Machine, a, b Instr) BoundFn {
	st := m.State
	pasel, pab, pac, pad := &st[a.A], &st[a.B], &st[a.C], &st[a.D]
	adm := mask(a.DW)
	psel, pbb, pbc, pbd := &st[b.A], &st[b.B], &st[b.C], &st[b.D]
	bdm := mask(b.DW)
	return func() {
		t := *pac
		if *pasel != 0 {
			t = *pab
		}
		*pad = t & adm
		r := *pbc
		if *psel != 0 {
			r = *pbb
		}
		*pbd = r & bdm
	}
}

// fuseMuxMuxMux: three adjacent muxes, each feeding the next — one closure
// per priority-encoder triple, removing two dispatches. Each mux's operand
// pointers are read after the previous store, so any aliasing (an arm or
// even a selector reading an earlier destination) behaves exactly like
// sequential execution.
func fuseMuxMuxMux(m *Machine, a, b, c Instr) BoundFn {
	st := m.State
	pasel, pab, pac, pad := &st[a.A], &st[a.B], &st[a.C], &st[a.D]
	adm := mask(a.DW)
	pbsel, pbb, pbc, pbd := &st[b.A], &st[b.B], &st[b.C], &st[b.D]
	bdm := mask(b.DW)
	pcsel, pcb, pcc, pcd := &st[c.A], &st[c.B], &st[c.C], &st[c.D]
	cdm := mask(c.DW)
	return func() {
		t := *pac
		if *pasel != 0 {
			t = *pab
		}
		*pad = t & adm
		u := *pbc
		if *pbsel != 0 {
			u = *pbb
		}
		*pbd = u & bdm
		r := *pcc
		if *pcsel != 0 {
			r = *pcb
		}
		*pcd = r & cdm
	}
}

// fuseCmpMuxMux: a comparison selecting a mux whose result feeds an arm of
// the next mux — the head of a priority chain. The computed comparison bit
// forwards straight into the first mux's select (the match guarantees the
// slot identity); the second mux reads its operands after both stores.
func fuseCmpMuxMux(m *Machine, a, b, c Instr) BoundFn {
	st := m.State
	pad := &st[a.D]
	pbb, pbc, pbd := &st[b.B], &st[b.C], &st[b.D]
	bdm := mask(b.DW)
	pcsel, pcb, pcc, pcd := &st[c.A], &st[c.B], &st[c.C], &st[c.D]
	cdm := mask(c.DW)
	x, y, xw, yw, negBit, kind := cmpParts(a)
	px, py := &st[x], &st[y]
	switch kind {
	case cmpEqK:
		return func() {
			cond := b2u(*px == *py) ^ negBit
			*pad = cond
			u := *pbc
			if cond != 0 {
				u = *pbb
			}
			*pbd = u & bdm
			r := *pcc
			if *pcsel != 0 {
				r = *pcb
			}
			*pcd = r & cdm
		}
	case cmpLtS:
		return func() {
			cond := b2u(sext64(*px, xw) < sext64(*py, yw)) ^ negBit
			*pad = cond
			u := *pbc
			if cond != 0 {
				u = *pbb
			}
			*pbd = u & bdm
			r := *pcc
			if *pcsel != 0 {
				r = *pcb
			}
			*pcd = r & cdm
		}
	}
	return func() {
		cond := b2u(*px < *py) ^ negBit
		*pad = cond
		u := *pbc
		if cond != 0 {
			u = *pbb
		}
		*pbd = u & bdm
		r := *pcc
		if *pcsel != 0 {
			r = *pcb
		}
		*pcd = r & cdm
	}
}

// pbb2 resolves the non-forwarded operand of an and-eqz consumer.
func pbb2(st []uint64, a, b Instr) *uint64 {
	if b.B == a.D {
		return &st[b.A]
	}
	return &st[b.B]
}

// compileCmpMuxBound specializes compare-into-mux into one straight-line
// closure per comparison kernel (see cmpParts).
func compileCmpMuxBound(st []uint64, a, b Instr) BoundFn {
	pad := &st[a.D]
	pbb, pbc, pbd := &st[b.B], &st[b.C], &st[b.D]
	bdm := mask(b.DW)
	x, y, xw, yw, negBit, kind := cmpParts(a)
	px, py := &st[x], &st[y]
	switch kind {
	case cmpEqK:
		return func() {
			c := b2u(*px == *py) ^ negBit
			*pad = c
			r := *pbc
			if c != 0 {
				r = *pbb
			}
			*pbd = r & bdm
		}
	case cmpLtS:
		return func() {
			c := b2u(sext64(*px, xw) < sext64(*py, yw)) ^ negBit
			*pad = c
			r := *pbc
			if c != 0 {
				r = *pbb
			}
			*pbd = r & bdm
		}
	}
	return func() {
		c := b2u(*px < *py) ^ negBit
		*pad = c
		r := *pbc
		if c != 0 {
			r = *pbb
		}
		*pbd = r & bdm
	}
}
