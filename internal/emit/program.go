// Package emit compiles an optimized ir.Graph into a flat, executable
// Program: a three-address instruction stream over a dense []uint64 state
// image. This is the Go analogue of GSIM emitting C++ simulation code — the
// "emission" step whose time, code size, and data size the paper reports in
// Table IV.
//
// Layout, three regions in one state image:
//   - the persistent words come first, [0, StateWords): every node gets a
//     word-aligned storage slot (a register's is its current value), and
//     memory write ports get their address, data and enable slots;
//   - constants live in a deduplicated pool among the persistent words;
//   - the next region, NextWords words from StateWords, holds every
//     register's next value. Next values are scratch: a register's next word
//     is written by its own code and read back (committed or compared) in
//     the same Step, so no engine, snapshot or migration carries it between
//     Steps, and an engine may redirect the store straight to the current
//     word when nothing later in the cycle reads the old value;
//   - every node's expression tree compiles to a contiguous instruction range
//     whose temporaries are scratch too: they live in one temporary region
//     of TempWords words from TempBase, every node's temporaries start at
//     the region's base, and a temporary is always written before it is read
//     inside its node's range. A schedule of K workers gives each worker a
//     region of its own (Stream.AppendNodesIn), so engines can still
//     evaluate nodes independently, including concurrently, while the state
//     every engine, snapshot and migration carries is the persistent prefix
//     alone.
package emit

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"gsim/internal/bitvec"
	"gsim/internal/ir"
)

// OpCode is a compiled instruction operator.
type OpCode uint8

// Instruction opcodes. CCopy implements Ref/Const roots and the pads that add
// state words; CMemRead reads the memory identified by Instr.Lo at the address
// held in the A slot.
const (
	CInvalid OpCode = iota
	CCopy
	CAdd
	CSub
	CMul
	CDiv
	CRem
	CNeg
	CAnd
	COr
	CXor
	CNot
	CAndR
	COrR
	CXorR
	CEq
	CNeq
	CLt
	CLeq
	CGt
	CGeq
	CSLt
	CSLeq
	CSGt
	CSGeq
	CShl
	CShr
	CDshl
	CDshr
	CCat
	CBits
	CSExt
	CMux
	CMemRead

	// cOpCount is the enumeration sentinel: keep it last. The kernel
	// coverage test sweeps [CCopy, cOpCount), so an opcode added above
	// without a kernel fails the suite instead of panicking at engine
	// construction.
	cOpCount
)

var opcodeOf = map[ir.Op]OpCode{
	ir.OpAdd: CAdd, ir.OpSub: CSub, ir.OpMul: CMul, ir.OpDiv: CDiv, ir.OpRem: CRem,
	ir.OpNeg: CNeg, ir.OpAnd: CAnd, ir.OpOr: COr, ir.OpXor: CXor, ir.OpNot: CNot,
	ir.OpAndR: CAndR, ir.OpOrR: COrR, ir.OpXorR: CXorR,
	ir.OpEq: CEq, ir.OpNeq: CNeq, ir.OpLt: CLt, ir.OpLeq: CLeq, ir.OpGt: CGt, ir.OpGeq: CGeq,
	ir.OpSLt: CSLt, ir.OpSLeq: CSLeq, ir.OpSGt: CSGt, ir.OpSGeq: CSGeq,
	ir.OpShl: CShl, ir.OpShr: CShr, ir.OpDshl: CDshl, ir.OpDshr: CDshr,
	ir.OpCat: CCat, ir.OpBits: CBits, ir.OpPad: CCopy, ir.OpSExt: CSExt, ir.OpMux: CMux,
}

// Instr is one compiled operation: State[D..] = op(State[A..], State[B..],
// State[C..]). Widths are in bits; word counts derive from widths.
type Instr struct {
	Op         OpCode
	DW, AW, BW int32 // destination and source widths (bits)
	D, A, B, C int32 // word offsets into the state image
	Hi, Lo     int32 // bits range; static shift amount in Lo; memory ID in Lo for CMemRead
}

// InstrBytes is the size of one instruction — the unit of the "code size"
// metric (Table IV analogue).
const InstrBytes = int(unsafe.Sizeof(Instr{}))

// Range is a half-open instruction index range [Start, End).
type Range struct{ Start, End int32 }

// Len returns the number of instructions in the range.
func (r Range) Len() int32 { return r.End - r.Start }

// MemSpec describes a compiled memory image.
type MemSpec struct {
	Depth    int
	Width    int
	WordsPer int32
	Init     []uint64 // Depth*WordsPer words
}

// Program is a compiled circuit.
type Program struct {
	// Graph is the graph the program was compiled from. Engines read only
	// its nodes (kinds, widths, reset signals, initial values, memories), so
	// a compiled design's program holds it released (ir.Graph.ReleaseExprs).
	Graph *ir.Graph

	// StateWords is the persistent part of the state image: node values
	// (registers: current values), memory write-port slots and the constant
	// pool. NextWords is the next region after it, one slot per register.
	// TempWords is one temporary region, sized to the largest node's
	// temporaries, starting at TempBase. NumWords, StateWords + NextWords +
	// TempWords, is one single-worker machine's image.
	StateWords, NextWords, TempWords, NumWords int

	Init   []uint64 // the persistent words at power-on: const pool + register init values
	Instrs []Instr

	// Per node-ID tables (indexed by ir.Node.ID).
	Code    []Range // instruction range evaluating the node
	Off     []int32 // value storage (registers: current value)
	NextOff []int32 // registers: next-value storage, in the next region; otherwise == Off
	WordsOf []int32 // state words per node value

	// Memory write-port expression result slots, per node ID.
	WAddrOff, WDataOff, WEnOff []int32

	Mems []MemSpec

	EmitTime time.Duration

	// Reused counts the subexpressions value numbering found already
	// computed in their node (see compileExpr): each is an instruction the
	// program does not hold. It describes the compile, not the program, so
	// the design hash leaves it out.
	Reused int

	// Memoized design hash (see hash.go), once-guarded so a Program stays
	// safely shareable across concurrently constructed engines (the server's
	// compiled-design cache hands one Program to many sessions).
	hashOnce sync.Once
	hash     [32]byte
}

// TempBase is the first word of the first temporary region: every operand
// at or above it is a temporary.
func (p *Program) TempBase() int { return p.StateWords + p.NextWords }

// InPlaceCandidate reports whether register id could commit by storing its
// next value straight into its current word: it is one word wide and only
// the last instruction of its code range touches its next word. Whether
// doing so is safe also depends on the order the register runs in (nothing
// evaluated after it may read its old value), which is the engine's call.
func (p *Program) InPlaceCandidate(id int32) bool {
	if p.Graph.Nodes[id].Kind != ir.KindReg || p.WordsOf[id] != 1 {
		return false
	}
	r, next := p.Code[id], p.NextOff[id]
	if r.Len() == 0 || p.Instrs[r.End-1].D != next {
		return false
	}
	for i := r.Start; i < r.End; i++ {
		in := &p.Instrs[i]
		if i < r.End-1 && touches(in.D, in.DW, next) || reads(in, next) {
			return false
		}
	}
	return true
}

// touches reports whether the operand span at off, w bits wide, covers word.
func touches(off, w, word int32) bool { return off <= word && word < off+max(wordsFor32(w), 1) }

// reads reports whether the instruction reads word.
func reads(in *Instr, word int32) (r bool) {
	in.EachRead(func(off, words int32) { r = r || off <= word && word < off+words })
	return r
}

// EachRead calls f with the first word and the word count of every operand
// span the instruction reads: A, then B of a binary operator, then a mux's
// false arm C.
func (in *Instr) EachRead(f func(off, words int32)) {
	f(in.A, max(wordsFor32(in.AW), 1))
	if in.BW > 0 {
		f(in.B, wordsFor32(in.BW))
	}
	if in.Op == CMux {
		f(in.C, max(wordsFor32(in.BW), 1))
	}
}

// CodeBytes returns the emitted code size in bytes (Table IV "Code Size").
func (p *Program) CodeBytes() int { return len(p.Instrs) * InstrBytes }

// DataBytes returns the state image size in bytes — the persistent words,
// the next region and one temporary region, one single-worker machine's
// image — excluding main-memory arrays, matching the paper's Table IV
// exclusion of the 128MB memory array.
func (p *Program) DataBytes() int { return p.NumWords * 8 }

// MemBytes returns the total memory-array bytes.
func (p *Program) MemBytes() int {
	n := 0
	for _, m := range p.Mems {
		n += len(m.Init) * 8
	}
	return n
}

type compiler struct {
	p         *Program
	next      int32 // next persistent word
	nextReg   int32 // next word of the next region
	temp      int32 // next word of the current node's temporaries
	constPool map[string]int32
	constVals []constFill

	vn vnTable // the current node's temporary-writing instructions (compileExpr)
}

// tempTag and nextTag mark a temporary's and a next value's offsets while
// the code is generated: both regions start after the constant pool, whose
// size is known only once every node is compiled, so temporaries are
// allocated at tempTag + t and next values at nextTag + r, and relocated to
// TempBase + t and StateWords + r at the end of Compile.
const (
	tempTag = 1 << 30
	nextTag = 1 << 29
)

type constFill struct {
	off int32
	val bitvec.BV
}

func (c *compiler) alloc(width int) int32 {
	off := c.next
	c.next += int32(bitvec.WordsFor(width))
	return off
}

// allocTemp allocates one of the current node's temporaries.
func (c *compiler) allocTemp(width int) int32 {
	off := c.temp
	c.temp += int32(bitvec.WordsFor(width))
	return tempTag + off
}

func (c *compiler) constSlot(v bitvec.BV) int32 {
	key := v.String()
	if off, ok := c.constPool[key]; ok {
		return off
	}
	off := c.alloc(v.Width)
	c.constPool[key] = off
	// The state image is sized after allocation finishes, so constant values
	// are stashed and filled in at the end of Compile.
	c.constVals = append(c.constVals, constFill{off, v})
	return off
}

// Compile lowers a validated graph into a Program. The graph must be
// compacted (dense IDs).
func Compile(g *ir.Graph) (*Program, error) {
	if g.Released() {
		return nil, fmt.Errorf("emit: %w", ir.ErrReleased)
	}
	start := time.Now()
	n := len(g.Nodes)
	p := &Program{
		Graph:    g,
		Code:     make([]Range, n),
		Off:      make([]int32, n),
		NextOff:  make([]int32, n),
		WordsOf:  make([]int32, n),
		WAddrOff: make([]int32, n),
		WDataOff: make([]int32, n),
		WEnOff:   make([]int32, n),
	}
	c := &compiler{p: p, constPool: map[string]int32{}}

	// Storage allocation pass.
	for _, node := range g.Nodes {
		if node == nil {
			return nil, fmt.Errorf("emit: graph not compacted (nil node)")
		}
		switch node.Kind {
		case ir.KindMemWrite:
			p.Off[node.ID] = -1
			p.NextOff[node.ID] = -1
			p.WAddrOff[node.ID] = c.alloc(node.WAddr.Width)
			p.WDataOff[node.ID] = c.alloc(node.WData.Width)
			p.WEnOff[node.ID] = c.alloc(1)
		case ir.KindReg:
			p.Off[node.ID] = c.alloc(node.Width)
			p.NextOff[node.ID] = nextTag + c.nextReg
			c.nextReg += int32(bitvec.WordsFor(node.Width))
			p.WordsOf[node.ID] = int32(bitvec.WordsFor(node.Width))
		default:
			p.Off[node.ID] = c.alloc(node.Width)
			p.NextOff[node.ID] = p.Off[node.ID]
			p.WordsOf[node.ID] = int32(bitvec.WordsFor(node.Width))
		}
	}

	// Code generation pass. Every node's temporaries start at the region's
	// base.
	var tempWords int32
	for _, node := range g.Nodes {
		startIdx := int32(len(p.Instrs))
		c.temp = 0
		c.vn.reset()
		var err error
		switch node.Kind {
		case ir.KindInput:
			// no code
		case ir.KindComb:
			err = c.compileRoot(node.Expr, p.Off[node.ID])
		case ir.KindReg:
			err = c.compileRoot(node.Expr, p.NextOff[node.ID])
		case ir.KindMemRead:
			var addr operand
			addr, err = c.compileExpr(node.Expr)
			if err == nil {
				p.Instrs = append(p.Instrs, Instr{
					Op: CMemRead, D: p.Off[node.ID], DW: int32(node.Width),
					A: addr.off, AW: addr.width, Lo: int32(node.Mem.ID),
				})
			}
		case ir.KindMemWrite:
			if err = c.compileRoot(node.WAddr, p.WAddrOff[node.ID]); err == nil {
				if err = c.compileRoot(node.WData, p.WDataOff[node.ID]); err == nil {
					err = c.compileRoot(node.WEn, p.WEnOff[node.ID])
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("emit: node %q: %v", node.Name, err)
		}
		p.Code[node.ID] = Range{Start: startIdx, End: int32(len(p.Instrs))}
		tempWords = max(tempWords, c.temp)
	}

	// The constant pool is final: place the next region after it, then the
	// temporary region. Temporaries move first, below nextTag, so the second
	// pass moves next values alone.
	p.StateWords, p.NextWords, p.TempWords = int(c.next), int(c.nextReg), int(tempWords)
	p.NumWords = p.StateWords + p.NextWords + p.TempWords
	for i := range p.Instrs {
		p.Instrs[i].relocate(tempTag, int32(p.TempBase())-tempTag)
		p.Instrs[i].relocate(nextTag, c.next-nextTag)
	}
	for _, node := range g.Nodes {
		if node.Kind == ir.KindReg {
			p.NextOff[node.ID] += c.next - nextTag
		}
	}
	// Append growth leaves up to a quarter of the array unused, and the
	// program lives as long as its design: trim to size.
	p.Instrs = append([]Instr(nil), p.Instrs...)

	// Finalize the persistent image: zero, then fill constants and register
	// inits.
	p.Init = make([]uint64, p.StateWords)
	for _, cf := range c.constVals {
		copy(p.Init[cf.off:], cf.val.W)
	}
	for _, node := range g.Nodes {
		if node.Kind == ir.KindReg && node.Init.Width > 0 {
			copy(p.Init[p.Off[node.ID]:], node.Init.W)
		}
	}

	// Memory images.
	p.Mems = make([]MemSpec, len(g.Mems))
	for i, m := range g.Mems {
		wp := int32(bitvec.WordsFor(m.Width))
		spec := MemSpec{Depth: m.Depth, Width: m.Width, WordsPer: wp, Init: make([]uint64, int32(m.Depth)*wp)}
		for addr, v := range m.Init {
			copy(spec.Init[int32(addr)*wp:int32(addr+1)*wp], v.W)
		}
		p.Mems[i] = spec
	}

	p.EmitTime = time.Since(start)
	return p, nil
}

// relocate adds shift to every operand offset at or above from: the move of
// the temporaries and next values into their regions, and of a region's
// chain into another worker's region. An operand an instruction does not read is 0, below any
// temporary.
func (in *Instr) relocate(from, shift int32) {
	if in.D >= from {
		in.D += shift
	}
	if in.A >= from {
		in.A += shift
	}
	if in.B >= from {
		in.B += shift
	}
	if in.C >= from {
		in.C += shift
	}
}

type operand struct {
	off   int32
	width int32
}

// unpad strips the zero-extensions at the root of e that compile to nothing.
// Every value in the state image is stored masked to its width — upper bits
// and upper words zero: every kernel masks its result to DW, Poke masks, and
// memories hold masked words — so a pad that adds no state word leaves its
// argument's words as they are. The consumer reads them at the padded width,
// which is what FIRRTL says the operand's width is.
func unpad(e *ir.Expr) *ir.Expr {
	for e.Op == ir.OpPad && bitvec.WordsFor(e.Width) == bitvec.WordsFor(e.Args[0].Width) {
		e = e.Args[0]
	}
	return e
}

// compileRoot compiles e, placing the result at dst.
func (c *compiler) compileRoot(e *ir.Expr, dst int32) error {
	e = unpad(e)
	switch e.Op {
	case ir.OpRef:
		src := c.p.Off[e.Node.ID]
		c.p.Instrs = append(c.p.Instrs, Instr{Op: CCopy, D: dst, DW: int32(e.Width), A: src, AW: int32(e.Node.Width)})
		return nil
	case ir.OpConst:
		src := c.constSlot(e.Imm)
		c.p.Instrs = append(c.p.Instrs, Instr{Op: CCopy, D: dst, DW: int32(e.Width), A: src, AW: int32(e.Width)})
		return nil
	}
	in, err := c.lower(e, dst)
	if err != nil {
		return err
	}
	c.p.Instrs = append(c.p.Instrs, in)
	return nil
}

// compileExpr compiles e into a fresh or existing slot and returns it.
//
// A non-leaf e is value-numbered within its node: once its operands are
// compiled, an instruction equal in every field but D to one the node
// already emitted computes the same value, so e reads that instruction's
// temporary and emits nothing. The equality is sound because, inside one
// node's range, no instruction before the root writes a persistent word the
// node reads and each temporary is written exactly once: equal opcodes,
// widths, operand offsets and bits fields read equal words. Commutative
// operands are compared as written, not canonicalized.
//
// The destination is allocated before the operands, as without value
// numbering, so a node with no repeated subexpression compiles to the same
// instructions. On a hit every operand was a leaf or a hit itself (a newly
// written temporary would differ from every earlier operand), so dst is the
// last temporary allocated and is given back.
func (c *compiler) compileExpr(e *ir.Expr) (operand, error) {
	if a := unpad(e); a != e {
		o, err := c.compileExpr(a)
		o.width = int32(e.Width)
		return o, err
	}
	switch e.Op {
	case ir.OpRef:
		return operand{c.p.Off[e.Node.ID], int32(e.Node.Width)}, nil
	case ir.OpConst:
		return operand{c.constSlot(e.Imm), int32(e.Width)}, nil
	}
	dst := c.allocTemp(e.Width)
	in, err := c.lower(e, dst)
	if err != nil {
		return operand{}, err
	}
	if d, ok := c.vn.lookup(in); ok {
		c.temp = dst - tempTag
		c.p.Reused++
		return operand{d, int32(e.Width)}, nil
	}
	c.vn.insert(in)
	c.p.Instrs = append(c.p.Instrs, in)
	return operand{dst, int32(e.Width)}, nil
}

// vnTable is the value numbering table of one node: open addressing over a
// power-of-two slot array holding the instructions emitted so far, keyed by
// every field but D. Each slot is stamped with the node it belongs to, so
// starting the next node (reset) costs nothing however many entries the
// last one used.
type vnTable struct {
	slots []vnSlot
	stamp uint32 // the current node's; a slot stamped otherwise is empty
	n     int    // the current node's entries
}

type vnSlot struct {
	in    Instr
	stamp uint32
}

// reset empties the table for the next node.
func (t *vnTable) reset() { t.stamp, t.n = t.stamp+1, 0 }

// lookup returns the destination of the entry computing what in computes.
func (t *vnTable) lookup(in Instr) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := vnHash(&in) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.stamp != t.stamp {
			return 0, false
		}
		if sameValue(&s.in, &in) {
			return s.in.D, true
		}
	}
}

// insert adds in, which lookup did not find. The table doubles before it is
// half full, carrying the current node's entries over.
func (t *vnTable) insert(in Instr) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots, t.n = make([]vnSlot, max(64, 2*len(old))), 0
		for i := range old {
			if old[i].stamp == t.stamp {
				t.insert(old[i].in)
			}
		}
	}
	mask := len(t.slots) - 1
	i := vnHash(&in) & mask
	for t.slots[i].stamp == t.stamp {
		i = (i + 1) & mask
	}
	t.slots[i] = vnSlot{in, t.stamp}
	t.n++
}

// sameValue reports whether a and b are equal in every field but D.
func sameValue(a, b *Instr) bool {
	return a.Op == b.Op && a.DW == b.DW && a.AW == b.AW && a.BW == b.BW &&
		a.A == b.A && a.B == b.B && a.C == b.C && a.Hi == b.Hi && a.Lo == b.Lo
}

// vnHash mixes every field of in but D.
func vnHash(in *Instr) int {
	h := uint64(uint32(in.A)) | uint64(uint32(in.B))<<32
	h = (h ^ uint64(uint32(in.C)) ^ uint64(uint32(in.Lo))<<32) * 0x9e3779b97f4a7c15
	h = (h ^ uint64(in.Op) ^ uint64(uint32(in.DW))<<8 ^ uint64(uint32(in.AW))<<24 ^ uint64(uint32(in.BW))<<40 ^ uint64(uint32(in.Hi))<<48) * 0xc2b2ae3d27d4eb4f
	return int(h >> 32)
}

// lower compiles a non-leaf expression's operands and returns the
// instruction that computes it into dst, which the caller emits.
func (c *compiler) lower(e *ir.Expr, dst int32) (Instr, error) {
	op, ok := opcodeOf[e.Op]
	if !ok {
		return Instr{}, fmt.Errorf("unsupported op %v", e.Op)
	}
	if (e.Op == ir.OpDiv || e.Op == ir.OpRem) && (e.Args[0].Width > 64 || e.Args[1].Width > 64) {
		return Instr{}, fmt.Errorf("div/rem wider than 64 bits not supported (widths %d, %d)", e.Args[0].Width, e.Args[1].Width)
	}
	var ops [3]operand
	for i, a := range e.Args {
		o, err := c.compileExpr(a)
		if err != nil {
			return Instr{}, err
		}
		ops[i] = o
	}
	in := Instr{Op: op, D: dst, DW: int32(e.Width), Hi: int32(e.Hi), Lo: int32(e.Lo)}
	switch len(e.Args) {
	case 1:
		in.A, in.AW = ops[0].off, ops[0].width
	case 2:
		in.A, in.AW = ops[0].off, ops[0].width
		in.B, in.BW = ops[1].off, ops[1].width
	case 3: // mux: A=sel, B=true arm, C=false arm; BW carries arm width
		in.A, in.AW = ops[0].off, ops[0].width
		in.B, in.BW = ops[1].off, ops[1].width
		in.C = ops[2].off
	}
	return in, nil
}
