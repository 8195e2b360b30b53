package emit

import (
	"fmt"
	"math"
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
// A stream's Mode, fixed when it is built, picks its kernels and nothing
// else: fused (the product), unfused (fusion's baseline) or interp (the
// reference interpreter, one window per chain). Every mode builds the same
// validated, relocated chain, and engines run every mode the same way.
//
// A chain runs in one temporary region: AppendNodes moves the temporaries
// of a worker's chains into that worker's region, so workers running
// concurrently never share a temporary. A stream's region count is the
// highest region a chain was appended into, plus one.
//
// Safety: kernels address the state image through unsafe.Add. Every
// instruction is validated once, as it is appended: each operand lies in
// the persistent words, the next region or one temporary region of p, and
// a memory read names one of p's memories. The chain then moves into its
// region, inside the stream's region count. Every machine a stream runs has
// p's memory shapes and at least that many regions: NewMachineRegions
// allocates them and nothing reallocates them (Reset, Poke and restores
// copy into them in place). CheckMachine asserts that once, where an engine
// binds a machine to a stream, not on every Run.

// Op is an operand record, in one of two layouts. A one-word kernel's
// record holds its instruction's byte offsets into the state image, the
// widths it masks with (at most 64: only instructions whose operands and
// result fit one word get a record of their own) and Sh, the static shift
// or bits offset, clamped to 255 (any count of 64 or more shifts every bit
// out); a memory read keeps its memory index in B. Otherwise an instruction
// is stored verbatim, one Instr filling two records, and runs through the
// interpreter (Machine.Exec's loop): the wide fallback's window is one such
// instruction, and an Interp window is a record holding its instruction
// count in D followed by its whole chain.
type Op struct {
	D, A, B, C     int32
	DW, AW, BW, Sh uint8
}

// An Instr fills exactly two records, and is aligned no stricter than one.
var (
	_ [2*unsafe.Sizeof(Op{}) - unsafe.Sizeof(Instr{})]struct{}
	_ [unsafe.Sizeof(Instr{}) - 2*unsafe.Sizeof(Op{})]struct{}
	_ [unsafe.Alignof(Op{}) - unsafe.Alignof(Instr{})]struct{}
)

// kernel runs the records of one window, starting at a, against the state
// image at st (m's) and returns the record after the window.
type kernel func(st unsafe.Pointer, m *Machine, a *Op) *Op

// BoundFn runs a compiled chain.
type BoundFn func()

// Mode is the kernels a stream compiles its chains to; every mode compiles
// the same chains.
type Mode uint8

const (
	// Fused applies superinstruction fusion (generated matchers from the
	// rule table, widest window first — a triple beats the pair it
	// contains) on top of the one-instruction kernels.
	Fused Mode = iota
	// Interp runs each chain through the reference switch-dispatch
	// interpreter (Machine.Exec's loop): one window per chain, whose
	// records hold the chain's instructions verbatim. It is the semantic
	// baseline the kernels are pinned against.
	Interp
	// Unfused compiles every instruction to its own kernel: the baseline
	// fusion is measured against.
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
	regions int32 // temporary regions the chains run in
	kernels []kernel
	ops     []Op    // every window's records, then a zero sentinel the last kernel returns
	chain   []Instr // AppendNodes scratch
}

// Span addresses one appended chain: kernels [K, KEnd), the first of them
// at record Rec.
type Span struct{ K, KEnd, Rec int32 }

// NewStream returns an empty stream for program p, compiling in mode.
func NewStream(p *Program, mode Mode) *Stream {
	return &Stream{p: p, mode: mode, regions: 1, ops: make([]Op, 1)}
}

// CheckMachine panics unless m is a machine of the stream's program with
// the stream's temporary regions — the one assertion the kernels' unchecked
// addressing rests on, made where an engine binds its machine.
func (s *Stream) CheckMachine(m *Machine) {
	p := s.p
	ok := m.Prog == p && len(m.State) >= p.NumWords+int(s.regions-1)*p.TempWords && len(m.Mems) == len(p.Mems)
	for i := 0; ok && i < len(m.Mems); i++ {
		ok = len(m.Mems[i]) == len(p.Mems[i].Init)
	}
	if !ok {
		panic(fmt.Sprintf("emit: a machine not shaped like its stream's program (%d state words for %d persistent ones, %d next values and %d temporary regions of %d)",
			len(m.State), p.StateWords, p.NextWords, s.regions, p.TempWords))
	}
}

// Append compiles the instruction chain ins, whose temporaries are in the
// first region, onto the stream and returns its span: fused windows in
// Fused mode, one kernel per instruction in Unfused, one window for the
// whole chain in Interp. The chain need not be contiguous in the program.
// Append panics, naming the instruction, if one has a zero width or reads
// or writes outside the program's persistent words, one temporary region
// and its memories.
func (s *Stream) Append(ins []Instr) Span {
	for i := range ins {
		s.check(ins[i], i)
	}
	return s.compile(ins)
}

// compile appends the windows of a validated chain.
func (s *Stream) compile(ins []Instr) Span {
	sp := s.begin()
	switch s.mode {
	case Fused:
		fusionWalk(ins, func(i int, r FuseRule) { s.window(ins[i : i+max(r.Arity(), 1)]) })
	case Unfused:
		for i := range ins {
			s.window(ins[i : i+1])
		}
	case Interp:
		if len(ins) > 0 {
			s.kernels = append(s.kernels, kInterp)
			s.ops = append(s.ops, Op{D: int32(len(ins))})
			s.verbatim(ins)
		}
	}
	return s.end(sp)
}

// AppendNodes appends the given nodes' code ranges, concatenated in the
// order given, as one chain whose temporaries live in the given region —
// the one of the worker that runs the chain. The order is the chain's
// execution order and must be a dependence order of the nodes — engines
// pass chunk member lists in ascending node/supernode ID, which the
// partition package guarantees is topological, including inside chunks
// that merge several dependence levels. Fusion applies across node
// boundaries exactly like inside a node: a kernel performs every store of
// its window in order, and a node's first instruction reads no temporary,
// so a window spanning two nodes fuses as it did before the nodes shared a
// region.
//
// Every register for which inPlace is true (nil: none) stores its next
// value straight into its current word: the chain redirects the register's
// final store, the only instruction touching its next word
// (Program.InPlaceCandidate, else a panic). The order must then also put
// every reader of such a register's current value before it.
//
// Every instruction is validated as Append validates it before it moves
// into the region.
func (s *Stream) AppendNodes(ids []int32, region int, inPlace func(id int32) bool) Span {
	p := s.p
	if region < 0 || int64(p.TempBase())+int64(region+1)*int64(p.TempWords) > math.MaxInt32/8 { // byte offsets are int32
		panic(fmt.Sprintf("emit: temporary region %d out of range", region))
	}
	s.regions = max(s.regions, int32(region)+1)
	s.chain = p.NodeChain(s.chain[:0], ids, inPlace)
	for i := range s.chain {
		s.check(s.chain[i], i)
		s.chain[i].relocate(int32(p.TempBase()), int32(region*p.TempWords))
	}
	return s.compile(s.chain)
}

// NodeChain appends to dst the given nodes' code ranges, concatenated in
// the order given, and returns it: the chain AppendNodes compiles, before
// it moves into a region. The final store of every register for
// which inPlace is true goes to its current word (nil: none does); NodeChain
// panics if such a register is not a Program.InPlaceCandidate.
func (p *Program) NodeChain(dst []Instr, ids []int32, inPlace func(id int32) bool) []Instr {
	for _, id := range ids {
		r := p.Code[id]
		dst = append(dst, p.Instrs[r.Start:r.End]...)
		if inPlace != nil && inPlace(id) {
			if !p.InPlaceCandidate(id) {
				panic(fmt.Sprintf("emit: node %d cannot update in place", id))
			}
			dst[len(dst)-1].D = p.Off[id]
		}
	}
	return dst
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
// zero-width values), every operand span inside one region — the persistent
// words, the next region or the first temporary region — and, for a memory
// read, the index of one of the program's memories. The stream moves the
// chain into its region after the check, and the region count bounds what a
// machine must hold.
func (s *Stream) check(in Instr, i int) {
	sw, tb := int64(s.p.StateWords), int64(s.p.TempBase())
	n := int64(min(s.p.NumWords, math.MaxInt32/8)) // byte offsets are int32
	inside := func(off, w int32) bool {
		lo, end := int64(off), int64(off)+int64(max(wordsFor32(w), 1))
		return lo >= 0 && (end <= sw || lo >= sw && end <= tb || lo >= tb && end <= n)
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
		panic(fmt.Sprintf("emit: refusing instruction %d of the chain (%s D=%d/%d A=%d/%d B=%d/%d C=%d Lo=%d): a zero width, or an operand outside the program's %d state words, its %d next values, its %d-word temporary region and %d memories",
			i, in.Op, in.D, in.DW, in.A, in.AW, in.B, in.BW, in.C, in.Lo, sw, tb-sw, n-tb, len(s.p.Mems)))
	}
}

// window appends one window: its kernel, chosen by opcodes — a one-word
// kernel when every operand and the result fit one word, the wide fallback
// otherwise — and its records.
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
	default:
		s.kernels = append(s.kernels, kWide)
		s.verbatim(w)
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

// verbatim appends the instructions ins as records, each filling two.
func (s *Stream) verbatim(ins []Instr) {
	s.ops = append(s.ops, unsafe.Slice((*Op)(unsafe.Pointer(unsafe.SliceData(ins))), 2*len(ins))...)
}

// instrs views the n instructions stored verbatim from record a on.
func instrs(a *Op, n int) []Instr { return unsafe.Slice((*Instr)(unsafe.Pointer(a)), n) }

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

// kInterp is the Interp mode's one kernel: it runs the a.D instructions
// stored after a through the interpreter.
func kInterp(_ unsafe.Pointer, m *Machine, a *Op) *Op {
	n := int(a.D)
	m.run(instrs(a.next(), n))
	return (*Op)(unsafe.Add(unsafe.Pointer(a), (1+2*n)*int(unsafe.Sizeof(Op{}))))
}

// kWide is the wide fallback: it runs the one instruction stored at a
// through the interpreter.
func kWide(_ unsafe.Pointer, m *Machine, a *Op) *Op {
	m.run(instrs(a, 1))
	return a.next().next()
}
