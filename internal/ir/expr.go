package ir

import (
	"fmt"
	"strings"

	"gsim/internal/bitvec"
)

// Expr is a node in an expression tree. Leaves are OpRef (read a graph node)
// or OpConst. Width is the value's bit width; it is fixed at construction
// following the FIRRTL width rules and kept consistent by all rewrites.
type Expr struct {
	Op    Op
	Args  []*Expr
	Node  *Node     // OpRef target
	Imm   bitvec.BV // OpConst value
	Hi    int       // OpBits high index
	Lo    int       // OpBits low index; static amount for OpShl/OpShr
	Width int
}

// Ref returns an expression reading node n.
func Ref(n *Node) *Expr {
	if n == nil {
		panic("ir: Ref(nil)")
	}
	return &Expr{Op: OpRef, Node: n, Width: n.Width}
}

// Const returns a literal expression.
func Const(v bitvec.BV) *Expr {
	return &Expr{Op: OpConst, Imm: v, Width: v.Width}
}

// ConstUint returns a literal expression of the given width.
func ConstUint(width int, v uint64) *Expr {
	return Const(bitvec.FromUint64(width, v))
}

// Unary builds a unary expression with inferred width. For OpShl/OpShr the
// static amount is n; for OpPad/OpSExt, n is the target width.
func Unary(op Op, a *Expr, n int) *Expr {
	e := &Expr{Op: op, Args: []*Expr{a}, Width: ResultWidth(op, a.Width, 0, n)}
	if op == OpShl || op == OpShr {
		e.Lo = n
	}
	return e
}

// Binary builds a binary expression with inferred width.
func Binary(op Op, a, b *Expr) *Expr {
	return &Expr{Op: op, Args: []*Expr{a, b}, Width: ResultWidth(op, a.Width, b.Width, 0)}
}

// BitsOf builds args[hi:lo].
func BitsOf(a *Expr, hi, lo int) *Expr {
	if hi < lo || lo < 0 || hi >= a.Width {
		panic(fmt.Sprintf("ir: bits(%d,%d) out of range for width %d", hi, lo, a.Width))
	}
	return &Expr{Op: OpBits, Args: []*Expr{a}, Hi: hi, Lo: lo, Width: hi - lo + 1}
}

// MuxOf builds sel ? a : b. The arms must have equal width.
func MuxOf(sel, a, b *Expr) *Expr {
	if a.Width != b.Width {
		panic(fmt.Sprintf("ir: mux arm widths differ: %d vs %d", a.Width, b.Width))
	}
	if sel.Width != 1 {
		panic(fmt.Sprintf("ir: mux selector width %d != 1", sel.Width))
	}
	return &Expr{Op: OpMux, Args: []*Expr{sel, a, b}, Width: a.Width}
}

// Clone returns a deep copy of e. Node references are shared (they point at
// graph nodes), constants are copied.
func (e *Expr) Clone() *Expr { return e.cloneInto(nil) }

// cloneInto deep-copies e (nil stays nil), redirecting every reference to
// the node with the same ID in nodes; a nil table keeps the references.
func (e *Expr) cloneInto(nodes []*Node) *Expr {
	if e == nil {
		return nil
	}
	c := &Expr{Op: e.Op, Node: e.Node, Hi: e.Hi, Lo: e.Lo, Width: e.Width}
	if e.Op == OpConst {
		c.Imm = e.Imm.Clone()
	} else if e.Op == OpRef && nodes != nil {
		c.Node = nodes[e.Node.ID]
	}
	if len(e.Args) > 0 {
		c.Args = make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			c.Args[i] = a.cloneInto(nodes)
		}
	}
	return c
}

// Walk calls f on every sub-expression of e in post-order (children first).
func (e *Expr) Walk(f func(*Expr)) {
	for _, a := range e.Args {
		a.Walk(f)
	}
	f(e)
}

// eachRef calls f with the target of every reference in e, once per
// occurrence, left to right.
func (e *Expr) eachRef(f func(*Node)) {
	if e.Op == OpRef {
		f(e.Node)
	}
	for _, a := range e.Args {
		a.eachRef(f)
	}
}

// Cost returns the total abstract evaluation cost of the tree — the sum of
// Op.Cost over every operator — matching the paper's cost(f(A)) metric.
func (e *Expr) Cost() int {
	c := e.Op.Cost()
	for _, a := range e.Args {
		c += a.Cost()
	}
	return c
}

// CountOps returns the number of non-leaf operators in the tree.
func (e *Expr) CountOps() int {
	n := 0
	if e.Op != OpRef && e.Op != OpConst {
		n = 1
	}
	for _, a := range e.Args {
		n += a.CountOps()
	}
	return n
}

// RefersTo reports whether e references node n anywhere.
func (e *Expr) RefersTo(n *Node) bool {
	found := false
	e.Walk(func(x *Expr) {
		if x.Op == OpRef && x.Node == n {
			found = true
		}
	})
	return found
}

// StructEq reports whether two trees are structurally identical: same ops,
// parameters, widths, constants, and referenced nodes.
func StructEq(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Op != b.Op || a.Width != b.Width || a.Hi != b.Hi || a.Lo != b.Lo {
		return false
	}
	switch a.Op {
	case OpRef:
		return a.Node == b.Node
	case OpConst:
		return a.Imm.Equal(b.Imm)
	}
	if len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !StructEq(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// HashSelf hashes e's own fields — everything StructEq compares except the
// arguments. Folding the arguments' hashes in with HashArg, in order, gives
// a structural hash consistent with StructEq; a pass that walks a tree
// bottom-up does that fold itself, hashing every sub-tree once instead of
// once per enclosing level. Hashes are never stored on the expression:
// rewrites change trees in place.
func (e *Expr) HashSelf() uint64 {
	h := HashArg(0, uint64(e.Op)<<32|uint64(uint32(e.Width)))
	h = HashArg(h, uint64(uint32(e.Hi))<<32|uint64(uint32(e.Lo)))
	switch e.Op {
	case OpRef:
		h = HashArg(h, uint64(e.Node.ID))
	case OpConst:
		for _, w := range e.Imm.W {
			h = HashArg(h, w)
		}
	}
	return h
}

// HashArg folds one more word (an argument's hash) into h. Order matters.
func HashArg(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	return h ^ h>>29
}

// String renders the expression in FIRRTL-ish prefix form.
func (e *Expr) String() string {
	var sb strings.Builder
	e.format(&sb)
	return sb.String()
}

func (e *Expr) format(sb *strings.Builder) {
	switch e.Op {
	case OpRef:
		sb.WriteString(e.Node.Name)
	case OpConst:
		fmt.Fprintf(sb, "UInt<%d>(%s)", e.Width, e.Imm.String())
	case OpBits:
		sb.WriteString("bits(")
		e.Args[0].format(sb)
		fmt.Fprintf(sb, ", %d, %d)", e.Hi, e.Lo)
	case OpShl, OpShr, OpPad, OpSExt:
		sb.WriteString(e.Op.String())
		sb.WriteByte('(')
		e.Args[0].format(sb)
		n := e.Lo
		if e.Op == OpPad || e.Op == OpSExt {
			n = e.Width
		}
		fmt.Fprintf(sb, ", %d)", n)
	default:
		sb.WriteString(e.Op.String())
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			a.format(sb)
		}
		sb.WriteByte(')')
	}
}
