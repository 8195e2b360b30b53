package emit

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

// Bound chains: the one compiled form every engine executes. A chain
// compiles into a Stream for a Program: opcode dispatch, fusion and width
// class are resolved at build time into one static kernel function per
// window, and every instruction becomes one operand record — state offsets
// and widths, no pointers — in one contiguous array. Running a chain
// is a loop of kernel calls over one machine's state image, each consuming
// its window's records and returning the next one; nothing is allocated per
// instruction. This is the closest a Go interpreter gets to GSIM's emitted
// straight-line C++: no opcode dispatch, no operand decode, no bounds
// checks, and code and operands laid out in execution order.
//
// A stream holds no machine state, so one stream serves every machine of
// its program: a compiled design builds it once and every engine and lane
// of the design runs it.
//
// A stream's Mode, fixed when it is built, picks its kernels: fused (the
// product), unfused (fusion's baseline) or interp (the reference
// interpreter, one window per node). Engines run every mode the same way.
//
// Safety: kernels address the state image through unsafe.Add. Every
// instruction is validated once, as it is appended, against p.NumWords and
// len(p.Mems). Every machine of p has NumWords state words and p's memory
// shapes: NewMachine allocates them and nothing reallocates them (Reset,
// Poke and restores copy into them in place). CheckMachine asserts that
// once, where an engine binds a machine to a stream, not on every Run.

// Op is one instruction's operand record: byte offsets into the state image
// and the widths the kernel masks with, clamped to 255 (above 64 a width
// only selects a 2-word operand's high word), and Sh, the static shift or
// bits offset, clamped to 255 (any count of 64 or more shifts every bit
// out). A memory read keeps its memory index in B. The wide fallback takes
// two records: the instruction's word offsets, then its widths in D, A, B,
// its Lo in C and its opcode in Sh. An Interp window's one record holds its
// node's instruction range in D and A.
type Op struct {
	D, A, B, C     int32
	DW, AW, BW, Sh uint8
}

// kernel runs the records of one window, starting at a, against the state
// image at st (m's) and returns the record after the window.
type kernel func(st unsafe.Pointer, m *Machine, a *Op) *Op

// BoundFn runs a compiled chain.
type BoundFn func()

// Mode is how a stream compiles its chains.
type Mode uint8

const (
	// Fused applies superinstruction fusion (generated matchers from the
	// rule table, widest window first — a triple beats the pair it
	// contains) on top of the width-class kernels.
	Fused Mode = iota
	// Interp runs each node's code range through the reference
	// switch-dispatch interpreter (Machine.Exec): one window per node,
	// whose record holds the range. It is the semantic baseline the
	// kernels are pinned against.
	Interp
	// Unfused compiles every instruction to its own kernel, width classes
	// kept: the baseline fusion is measured against.
	Unfused
)

// String returns the mode's flag spelling, which names the benchmark rows.
func (m Mode) String() string {
	switch m {
	case Interp:
		return "interp"
	case Unfused:
		return "kernel-nofuse"
	}
	return "kernel"
}

// Stream is a sequence of chains compiled for one program: one kernel per
// window in one array, the windows' operand records in another. Once
// trimmed it is immutable, and any number of machines of the program may
// run it concurrently.
type Stream struct {
	p       *Program
	mode    Mode
	kernels []kernel
	ops     []Op    // every window's records, then a zero sentinel the last kernel returns
	chain   []Instr // AppendNodes scratch
}

// Span addresses one appended chain: kernels [K, KEnd), the first of them
// at record Rec.
type Span struct{ K, KEnd, Rec int32 }

// NewStream returns an empty stream for program p, compiling in mode.
func NewStream(p *Program, mode Mode) *Stream {
	return &Stream{p: p, mode: mode, ops: make([]Op, 1)}
}

// CheckMachine panics unless m is shaped like every machine of the
// stream's program — the one assertion the kernels' unchecked addressing
// rests on, made where an engine binds its machine.
func (s *Stream) CheckMachine(m *Machine) {
	p := s.p
	ok := m.Prog == p && len(m.State) == p.NumWords && len(m.Mems) == len(p.Mems)
	for i := 0; ok && i < len(m.Mems); i++ {
		ok = len(m.Mems[i]) == len(p.Mems[i].Init)
	}
	if !ok {
		panic("emit: a machine not shaped like its stream's program")
	}
}

// Append compiles the instruction chain ins onto the stream and returns its
// span: fused windows in Fused mode, one kernel per instruction in Unfused.
// The chain need not be contiguous in the program. Append panics, naming
// the instruction, if one has a zero width or reads or writes outside the
// program's state image or memories. An Interp stream runs node ranges of
// the program, so it takes chains only through AppendNodes.
func (s *Stream) Append(ins []Instr) Span {
	if s.mode == Interp {
		panic("emit: an interp stream appends node ranges (AppendNodes), not instructions")
	}
	for i := range ins {
		s.check(ins[i], i)
	}
	sp := s.begin()
	if s.mode == Fused {
		fusionWalk(ins, func(i int, r FuseRule) { s.window(ins[i : i+max(r.Arity(), 1)]) })
	} else {
		for i := range ins {
			s.window(ins[i : i+1])
		}
	}
	return s.end(sp)
}

// AppendNodes appends the given nodes' code ranges, concatenated in the
// order given, as one chain. The order is the chain's execution order and
// must be a dependence order of the nodes — engines pass chunk member lists
// in ascending node/supernode ID, which the partition package guarantees is
// topological, including inside coarsened (level-merged) chunks. Fusion
// applies across node boundaries exactly like inside a node: a kernel
// performs every store of its window in order. Every instruction is
// validated as Append validates it, in every mode.
func (s *Stream) AppendNodes(ids []int32) Span {
	p := s.p
	if s.mode != Interp {
		s.chain = s.chain[:0]
		for _, id := range ids {
			r := p.Code[id]
			s.chain = append(s.chain, p.Instrs[r.Start:r.End]...)
		}
		return s.Append(s.chain)
	}
	sp, i := s.begin(), 0
	for _, id := range ids {
		r := p.Code[id]
		for _, in := range p.Instrs[r.Start:r.End] {
			s.check(in, i)
			i++
		}
		if r.Len() > 0 {
			s.kernels = append(s.kernels, kExec)
			s.ops = append(s.ops, Op{D: r.Start, A: r.End})
		}
	}
	return s.end(sp)
}

// begin opens a chain: its span starts at the next kernel and at the
// sentinel record, which the chain's first window overwrites.
func (s *Stream) begin() Span {
	sp := Span{K: int32(len(s.kernels)), Rec: int32(len(s.ops) - 1)}
	s.ops = s.ops[:len(s.ops)-1]
	return sp
}

// end closes the chain begin opened and restores the sentinel.
func (s *Stream) end(sp Span) Span {
	s.ops = append(s.ops, Op{})
	sp.KEnd = int32(len(s.kernels))
	return sp
}

// Run executes one appended chain on machine m, which must have passed
// CheckMachine.
func (s *Stream) Run(m *Machine, sp Span) {
	st, a := unsafe.Pointer(unsafe.SliceData(m.State)), &s.ops[sp.Rec]
	for _, k := range s.kernels[sp.K:sp.KEnd] {
		a = k(st, m, a)
	}
}

// Trim drops the arrays' spare capacity and the build scratch. The stream
// lives as long as its design: call Trim once the last chain is appended.
func (s *Stream) Trim() {
	s.kernels = append([]kernel(nil), s.kernels...)
	s.ops = append([]Op(nil), s.ops...)
	s.chain = nil
}

// Footprint reports the stream's size: kernels, operand records and the
// bytes of both arrays.
func (s *Stream) Footprint() (kernels, records, bytes int) {
	kernels, records = len(s.kernels), len(s.ops)-1
	return kernels, records, kernels*int(unsafe.Sizeof(kernel(nil))) + len(s.ops)*int(unsafe.Sizeof(Op{}))
}

// CompileChainBound compiles ins, fused, into a stream for p and returns it
// as one BoundFn running the whole chain on machine m.
func (p *Program) CompileChainBound(m *Machine, ins []Instr) []BoundFn {
	s := NewStream(p, Fused)
	s.CheckMachine(m)
	sp := s.Append(ins)
	s.Trim()
	return []BoundFn{func() { s.Run(m, sp) }}
}

// check panics unless instruction i of a chain has a valid opcode, non-zero
// result and first-operand widths (mask8's domain; the front end refuses
// zero-width values), every operand span inside the state image, and, for a
// memory read, the index of one of the program's memories.
func (s *Stream) check(in Instr, i int) {
	n := int64(min(s.p.NumWords, math.MaxInt32/8)) // byte offsets are int32
	inside := func(off, w int32) bool {
		return off >= 0 && int64(off)+int64(max(wordsFor32(w), 1)) <= n
	}
	cw := int32(1)
	if in.Op == CMux {
		cw = in.BW
	}
	ok := in.Op > CInvalid && in.Op < cOpCount && in.DW > 0 && in.AW > 0 &&
		inside(in.D, in.DW) && inside(in.A, in.AW) && inside(in.B, in.BW) && inside(in.C, cw)
	if in.Op == CMemRead && (in.Lo < 0 || int(in.Lo) >= len(s.p.Mems)) {
		ok = false
	}
	if !ok {
		panic(fmt.Sprintf("emit: refusing instruction %d of the chain (%s D=%d/%d A=%d/%d B=%d/%d C=%d Lo=%d): a zero width, or an operand outside the program's %d state words and %d memories",
			i, in.Op, in.D, in.DW, in.A, in.AW, in.B, in.BW, in.C, in.Lo, n, len(s.p.Mems)))
	}
}

// window appends one window: its kernel, chosen by width class and opcodes,
// and its records.
func (s *Stream) window(w []Instr) {
	in := w[0]
	var k kernel
	switch {
	case len(w) > 1:
		var key [3]OpCode
		for i := range w {
			key[i] = w[i].Op
		}
		k = windowKernels[key]
	case narrow(in):
		k = narrowKernels[in.Op]
	case is2Word(in):
		k = kernels2W[in.Op]
	default:
		s.kernels = append(s.kernels, kWide)
		s.ops = append(s.ops, Op{D: in.D, A: in.A, B: in.B, C: in.C},
			Op{D: in.DW, A: in.AW, B: in.BW, C: in.Lo, Sh: uint8(in.Op)})
		return
	}
	if k == nil {
		// Panic rather than fall back, so the coverage sweeps catch an
		// opcode or rule added without a kernel.
		panic(fmt.Sprintf("emit: no kernel for the window %v", w))
	}
	s.kernels = append(s.kernels, k)
	for _, in := range w {
		r := Op{D: in.D * 8, A: in.A * 8, B: in.B * 8, C: in.C * 8, DW: clamp8(in.DW), AW: clamp8(in.AW), BW: clamp8(in.BW), Sh: clamp8(in.Lo)}
		if in.Op == CMemRead {
			r.B = in.Lo
		}
		s.ops = append(s.ops, r)
	}
}

func clamp8(v int32) uint8 { return uint8(min(v, 255)) }

// at addresses the state word at byte offset off of the image at st.
func at(st unsafe.Pointer, off int32) *uint64 { return (*uint64)(unsafe.Add(st, off)) }

// next returns the record after a.
func (a *Op) next() *Op { return (*Op)(unsafe.Add(unsafe.Pointer(a), unsafe.Sizeof(Op{}))) }

// mask8 is mask for a record width in [1, 64]; the & 63 lets the compiler
// drop the fixup Go's semantics need for a shift count of 64 or more.
func mask8(w uint8) uint64 { return ^uint64(0) >> ((64 - w) & 63) }

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

// readMem reads the low word of element addr of a memory of the given depth
// and words per element; 0 out of range.
func readMem(mem []uint64, addr, depth uint64, wp int32) uint64 {
	if addr < depth {
		return mem[int32(addr)*wp]
	}
	return 0
}

// kMemread is the memory read's single kernel; the value table has no row
// for it, since its value needs the machine's memory arrays.
func kMemread(st unsafe.Pointer, m *Machine, a *Op) *Op {
	spec := &m.Prog.Mems[a.B]
	*at(st, a.D) = readMem(m.Mems[a.B], *at(st, a.A), uint64(spec.Depth), spec.WordsPer) & mask8(a.DW)
	return a.next()
}

// kExec is the Interp mode's one kernel: it runs a node's code range,
// [a.D, a.A), through the interpreter.
func kExec(_ unsafe.Pointer, m *Machine, a *Op) *Op {
	m.Exec(a.D, a.A)
	return a.next()
}

// kWide runs a wide instruction through the interpreter's multi-word path.
func kWide(st unsafe.Pointer, m *Machine, a *Op) *Op {
	w := a.next()
	in := Instr{Op: OpCode(w.Sh), D: a.D, A: a.A, B: a.B, C: a.C, DW: w.D, AW: w.A, BW: w.B, Lo: w.C}
	m.execWide(&in)
	return w.next()
}

// The two-word width-class kernels (see the WidthClass doc in wide2.go).
// Each reproduces execWide's result exactly, including the top-word mask,
// reading and storing in the same order as the word loop — the width-class
// tests pin this on randomized state.
var kernels2W = [cOpCount]kernel{
	CCopy: k2Copy, CAdd: k2Add, CSub: k2Sub, CAnd: k2And, COr: k2Or,
	CXor: k2Xor, CNot: k2Not, CMux: k2Mux, CEq: k2Eq, CNeq: k2Neq,
}

// hi2 reads the high word of a 2-word-class operand of width w: zero when
// the operand fits one word.
func hi2(st unsafe.Pointer, off int32, w uint8) uint64 {
	if w > 64 {
		return *at(st, off+8)
	}
	return 0
}

// top2 is the top-word mask of a 2-word result of width w.
func top2(w uint8) uint64 { return ^uint64(0) >> (128 - w) }

func k2Copy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = *at(st, a.A)
	*at(st, a.D+8) = hi2(st, a.A, a.AW) & top2(a.DW)
	return a.next()
}

func k2Add(st unsafe.Pointer, m *Machine, a *Op) *Op {
	lo, c := bits.Add64(*at(st, a.A), *at(st, a.B), 0)
	*at(st, a.D) = lo
	*at(st, a.D+8) = (hi2(st, a.A, a.AW) + hi2(st, a.B, a.BW) + c) & top2(a.DW)
	return a.next()
}

func k2Sub(st unsafe.Pointer, m *Machine, a *Op) *Op {
	lo, b := bits.Sub64(*at(st, a.A), *at(st, a.B), 0)
	*at(st, a.D) = lo
	*at(st, a.D+8) = (hi2(st, a.A, a.AW) - hi2(st, a.B, a.BW) - b) & top2(a.DW)
	return a.next()
}

func k2And(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = *at(st, a.A) & *at(st, a.B)
	*at(st, a.D+8) = hi2(st, a.A, a.AW) & hi2(st, a.B, a.BW) & top2(a.DW)
	return a.next()
}

func k2Or(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = *at(st, a.A) | *at(st, a.B)
	*at(st, a.D+8) = (hi2(st, a.A, a.AW) | hi2(st, a.B, a.BW)) & top2(a.DW)
	return a.next()
}

func k2Xor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = *at(st, a.A) ^ *at(st, a.B)
	*at(st, a.D+8) = (hi2(st, a.A, a.AW) ^ hi2(st, a.B, a.BW)) & top2(a.DW)
	return a.next()
}

func k2Not(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = ^*at(st, a.A)
	*at(st, a.D+8) = ^hi2(st, a.A, a.AW) & top2(a.DW)
	return a.next()
}

// k2Mux: A is the one-word selector; both arms share BW and read at most
// the two result words.
func k2Mux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	lo, hi := *at(st, a.C), hi2(st, a.C, a.BW)
	if *at(st, a.A) != 0 {
		lo, hi = *at(st, a.B), hi2(st, a.B, a.BW)
	}
	*at(st, a.D) = lo
	*at(st, a.D+8) = hi & top2(a.DW)
	return a.next()
}

func k2Eq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	diff := (*at(st, a.A) ^ *at(st, a.B)) | (hi2(st, a.A, a.AW) ^ hi2(st, a.B, a.BW))
	*at(st, a.D) = b2u(diff == 0)
	return a.next()
}

func k2Neq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	diff := (*at(st, a.A) ^ *at(st, a.B)) | (hi2(st, a.A, a.AW) ^ hi2(st, a.B, a.BW))
	*at(st, a.D) = b2u(diff != 0)
	return a.next()
}
