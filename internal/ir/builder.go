package ir

import (
	"fmt"

	"gsim/internal/bitvec"
)

// Builder is a convenience layer for constructing graphs programmatically —
// the same role Chisel plays for the paper's designs. All expression helpers
// infer FIRRTL result widths; Trunc/Extend adjust widths explicitly.
type Builder struct {
	G      *Graph
	prefix string
	anon   int
}

// NewBuilder returns a builder for a fresh graph.
func NewBuilder(name string) *Builder {
	return &Builder{G: NewGraph(name)}
}

// Scoped returns a builder that prefixes node names, for composing modules.
func (b *Builder) Scoped(prefix string) *Builder {
	return &Builder{G: b.G, prefix: b.prefix + prefix + "."}
}

func (b *Builder) name(n string) string {
	if n == "" {
		b.anon++
		n = fmt.Sprintf("_t%d", b.anon)
	}
	return b.prefix + n
}

// Input adds an external input node.
func (b *Builder) Input(name string, width int) *Node {
	return b.G.AddNode(&Node{Name: b.name(name), Kind: KindInput, Width: width})
}

// Comb adds a named combinational node for the expression.
func (b *Builder) Comb(name string, e *Expr) *Node {
	return b.G.AddNode(&Node{Name: b.name(name), Kind: KindComb, Width: e.Width, Expr: e})
}

// Output adds a combinational node marked externally observable.
func (b *Builder) Output(name string, e *Expr) *Node {
	n := b.Comb(name, e)
	n.IsOutput = true
	return n
}

// MarkOutput flags an existing node as observable.
func (b *Builder) MarkOutput(n *Node) *Node {
	n.IsOutput = true
	return n
}

// Reg adds a register with a zero init whose next-value expression must be
// assigned later via SetNext (to allow feedback loops).
func (b *Builder) Reg(name string, width int) *Node {
	return b.G.AddNode(&Node{
		Name:  b.name(name),
		Kind:  KindReg,
		Width: width,
		Init:  bitvec.New(width),
	})
}

// RegInit adds a register with an explicit initial value.
func (b *Builder) RegInit(name string, width int, init bitvec.BV) *Node {
	n := b.Reg(name, width)
	n.Init = bitvec.Pad(init, width)
	return n
}

// SetNext assigns a register's next-value expression, padding or truncating
// the expression to the register width.
func (b *Builder) SetNext(r *Node, e *Expr) {
	if r.Kind != KindReg {
		panic(fmt.Sprintf("ir: SetNext on non-register %v", r))
	}
	r.Expr = b.Fit(e, r.Width)
}

// Mem adds a memory.
func (b *Builder) Mem(name string, depth, width int) *Memory {
	return b.G.AddMem(&Memory{Name: b.name(name), Depth: depth, Width: width})
}

// MemRead adds a combinational read port on m at the given address.
func (b *Builder) MemRead(name string, m *Memory, addr *Expr) *Node {
	return b.G.AddNode(&Node{
		Name: b.name(name), Kind: KindMemRead, Width: m.Width,
		Mem: m, Expr: b.Fit(addr, m.AddrWidth()),
	})
}

// MemWrite adds a synchronous write port on m.
func (b *Builder) MemWrite(name string, m *Memory, addr, data, en *Expr) *Node {
	return b.G.AddNode(&Node{
		Name: b.name(name), Kind: KindMemWrite, Width: m.Width,
		Mem:   m,
		WAddr: b.Fit(addr, m.AddrWidth()),
		WData: b.Fit(data, m.Width),
		WEn:   b.Fit(en, 1),
	})
}

// --- Expression helpers (width-inferring) ---

// R returns a reference to node n.
func (b *Builder) R(n *Node) *Expr { return Ref(n) }

// C returns a constant of the given width.
func (b *Builder) C(width int, v uint64) *Expr { return ConstUint(width, v) }

// CB returns a constant from a bit vector.
func (b *Builder) CB(v bitvec.BV) *Expr { return Const(v) }

// Add returns x+y (width max+1).
func (b *Builder) Add(x, y *Expr) *Expr { return Binary(OpAdd, x, y) }

// Sub returns x-y (width max+1).
func (b *Builder) Sub(x, y *Expr) *Expr { return Binary(OpSub, x, y) }

// Mul returns x*y (width sum).
func (b *Builder) Mul(x, y *Expr) *Expr { return Binary(OpMul, x, y) }

// Div returns x/y.
func (b *Builder) Div(x, y *Expr) *Expr { return Binary(OpDiv, x, y) }

// Rem returns x%y.
func (b *Builder) Rem(x, y *Expr) *Expr { return Binary(OpRem, x, y) }

// And returns x&y.
func (b *Builder) And(x, y *Expr) *Expr { return Binary(OpAnd, x, y) }

// Or returns x|y.
func (b *Builder) Or(x, y *Expr) *Expr { return Binary(OpOr, x, y) }

// Xor returns x^y.
func (b *Builder) Xor(x, y *Expr) *Expr { return Binary(OpXor, x, y) }

// Not returns ^x.
func (b *Builder) Not(x *Expr) *Expr { return Unary(OpNot, x, 0) }

// AndR returns the AND reduction of x.
func (b *Builder) AndR(x *Expr) *Expr { return Unary(OpAndR, x, 0) }

// OrR returns the OR reduction of x.
func (b *Builder) OrR(x *Expr) *Expr { return Unary(OpOrR, x, 0) }

// XorR returns the XOR reduction of x.
func (b *Builder) XorR(x *Expr) *Expr { return Unary(OpXorR, x, 0) }

// Eq returns x==y.
func (b *Builder) Eq(x, y *Expr) *Expr { return Binary(OpEq, x, y) }

// Neq returns x!=y.
func (b *Builder) Neq(x, y *Expr) *Expr { return Binary(OpNeq, x, y) }

// Lt returns x<y unsigned.
func (b *Builder) Lt(x, y *Expr) *Expr { return Binary(OpLt, x, y) }

// Leq returns x<=y unsigned.
func (b *Builder) Leq(x, y *Expr) *Expr { return Binary(OpLeq, x, y) }

// Gt returns x>y unsigned.
func (b *Builder) Gt(x, y *Expr) *Expr { return Binary(OpGt, x, y) }

// Geq returns x>=y unsigned.
func (b *Builder) Geq(x, y *Expr) *Expr { return Binary(OpGeq, x, y) }

// SLt returns x<y signed.
func (b *Builder) SLt(x, y *Expr) *Expr { return Binary(OpSLt, x, y) }

// SGeq returns x>=y signed.
func (b *Builder) SGeq(x, y *Expr) *Expr { return Binary(OpSGeq, x, y) }

// Shl returns x<<n (static).
func (b *Builder) Shl(x *Expr, n int) *Expr { return Unary(OpShl, x, n) }

// Shr returns x>>n (static).
func (b *Builder) Shr(x *Expr, n int) *Expr { return Unary(OpShr, x, n) }

// Dshl returns x<<y (dynamic), capped at the given result width.
func (b *Builder) Dshl(x, y *Expr, width int) *Expr {
	e := Binary(OpDshl, x, y)
	return b.Fit(e, width)
}

// DshlFull returns x<<y at the full FIRRTL width.
func (b *Builder) DshlFull(x, y *Expr) *Expr { return Binary(OpDshl, x, y) }

// Dshr returns x>>y (dynamic).
func (b *Builder) Dshr(x, y *Expr) *Expr { return Binary(OpDshr, x, y) }

// Cat returns {hi, lo}.
func (b *Builder) Cat(hi, lo *Expr) *Expr { return Binary(OpCat, hi, lo) }

// CatAll concatenates parts, first argument highest.
func (b *Builder) CatAll(parts ...*Expr) *Expr {
	if len(parts) == 0 {
		panic("ir: CatAll with no parts")
	}
	e := parts[len(parts)-1]
	for i := len(parts) - 2; i >= 0; i-- {
		e = b.Cat(parts[i], e)
	}
	return e
}

// Bits returns x[hi:lo].
func (b *Builder) Bits(x *Expr, hi, lo int) *Expr { return BitsOf(x, hi, lo) }

// Bit returns x[i] as a 1-bit value.
func (b *Builder) Bit(x *Expr, i int) *Expr { return BitsOf(x, i, i) }

// Mux returns sel ? x : y, padding the arms to a common width.
func (b *Builder) Mux(sel, x, y *Expr) *Expr {
	w := x.Width
	if y.Width > w {
		w = y.Width
	}
	return MuxOf(b.Fit(sel, 1), b.Fit(x, w), b.Fit(y, w))
}

// Fit pads or truncates e to exactly width bits.
func (b *Builder) Fit(e *Expr, width int) *Expr {
	switch {
	case e.Width == width:
		return e
	case e.Width < width:
		return &Expr{Op: OpPad, Args: []*Expr{e}, Width: width}
	default:
		return BitsOf(e, width-1, 0)
	}
}

// SExt sign-extends e to width bits.
func (b *Builder) SExt(e *Expr, width int) *Expr {
	if e.Width >= width {
		return b.Fit(e, width)
	}
	return &Expr{Op: OpSExt, Args: []*Expr{e}, Width: width}
}

// AddW returns x+y truncated to width.
func (b *Builder) AddW(x, y *Expr, width int) *Expr { return b.Fit(b.Add(x, y), width) }

// SubW returns x-y truncated to width.
func (b *Builder) SubW(x, y *Expr, width int) *Expr { return b.Fit(b.Sub(x, y), width) }

// Counter builds a free-running width-bit counter register incrementing by
// step each cycle, and returns it.
func (b *Builder) Counter(name string, width int, step uint64) *Node {
	r := b.Reg(name, width)
	b.SetNext(r, b.Add(b.R(r), b.C(width, step)))
	return r
}
