// Package emit compiles an optimized ir.Graph into a flat, executable
// Program: a three-address instruction stream over a dense []uint64 state
// image. This is the Go analogue of GSIM emitting C++ simulation code — the
// "emission" step whose time, code size, and data size the paper reports in
// Table IV.
//
// Layout:
//   - the persistent words come first, [0, StateWords): every node gets a
//     word-aligned storage slot (registers get two: current and next), and
//     memory write ports get their address, data and enable slots;
//   - constants live in a deduplicated pool among the persistent words;
//   - every node's expression tree compiles to a contiguous instruction range
//     whose temporaries are scratch: they live in one temporary region of
//     TempWords words after the persistent ones, every node's temporaries
//     start at the region's base, and a temporary is always written before
//     it is read inside its node's range. A schedule of K workers gives each
//     worker a region of its own (Stream.AppendNodesIn), so engines can still
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

	// StateWords is the persistent part of the state image: node values,
	// register next values, memory write-port slots and the constant pool.
	// TempWords is one temporary region, sized to the largest node's
	// temporaries. NumWords, StateWords + TempWords, is one single-worker
	// machine's image.
	StateWords, TempWords, NumWords int

	Init   []uint64 // the persistent words at power-on: const pool + register init values
	Instrs []Instr

	// Per node-ID tables (indexed by ir.Node.ID).
	Code    []Range // instruction range evaluating the node
	Off     []int32 // value storage (registers: current value)
	NextOff []int32 // registers: next-value storage; otherwise == Off
	WordsOf []int32 // state words per node value

	// Memory write-port expression result slots, per node ID.
	WAddrOff, WDataOff, WEnOff []int32

	Mems []MemSpec

	EmitTime time.Duration

	// Memoized design hash (see hash.go), once-guarded so a Program stays
	// safely shareable across concurrently constructed engines (the server's
	// compiled-design cache hands one Program to many sessions).
	hashOnce sync.Once
	hash     [32]byte
}

// CodeBytes returns the emitted code size in bytes (Table IV "Code Size").
func (p *Program) CodeBytes() int { return len(p.Instrs) * InstrBytes }

// DataBytes returns the state image size in bytes — the persistent words
// plus one temporary region, one single-worker machine's image — excluding
// main-memory arrays, matching the paper's Table IV exclusion of the 128MB
// memory array.
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
	temp      int32 // next word of the current node's temporaries
	constPool map[string]int32
	constVals []constFill
}

// tempTag marks a temporary's offset while the code is generated: the
// temporary region starts after the constant pool, whose size is known only
// once every node is compiled, so temporaries are allocated at tempTag + t
// and relocated to StateWords + t at the end of Compile.
const tempTag = 1 << 30

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
			p.NextOff[node.ID] = c.alloc(node.Width)
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

	// The constant pool is final: place the temporary region after it.
	p.StateWords, p.TempWords = int(c.next), int(tempWords)
	p.NumWords = p.StateWords + p.TempWords
	for i := range p.Instrs {
		p.Instrs[i].relocate(tempTag, c.next-tempTag)
	}

	// Finalize the persistent image: zero, then fill constants and register
	// inits.
	p.Init = make([]uint64, p.StateWords)
	for _, cf := range c.constVals {
		copy(p.Init[cf.off:], cf.val.W)
	}
	for _, node := range g.Nodes {
		if node.Kind == ir.KindReg && node.Init.Width > 0 {
			copy(p.Init[p.Off[node.ID]:], node.Init.W)
			copy(p.Init[p.NextOff[node.ID]:], node.Init.W)
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
// the temporaries into their region, and of a region's chain into another
// worker's region. An operand an instruction does not read is 0, below any
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
	return c.compileInto(e, dst)
}

// compileExpr compiles e into a fresh or existing slot and returns it.
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
	if err := c.compileInto(e, dst); err != nil {
		return operand{}, err
	}
	return operand{dst, int32(e.Width)}, nil
}

// compileInto compiles a non-leaf expression, placing the result at dst.
func (c *compiler) compileInto(e *ir.Expr, dst int32) error {
	op, ok := opcodeOf[e.Op]
	if !ok {
		return fmt.Errorf("unsupported op %v", e.Op)
	}
	if (e.Op == ir.OpDiv || e.Op == ir.OpRem) && (e.Args[0].Width > 64 || e.Args[1].Width > 64) {
		return fmt.Errorf("div/rem wider than 64 bits not supported (widths %d, %d)", e.Args[0].Width, e.Args[1].Width)
	}
	var ops [3]operand
	for i, a := range e.Args {
		o, err := c.compileExpr(a)
		if err != nil {
			return err
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
	c.p.Instrs = append(c.p.Instrs, in)
	return nil
}
