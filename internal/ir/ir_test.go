package ir

import (
	"strings"
	"testing"
	"testing/quick"

	"gsim/internal/bitvec"
)

func buildAdder(t *testing.T) (*Graph, *Builder) {
	t.Helper()
	b := NewBuilder("adder")
	a := b.Input("a", 8)
	c := b.Input("b", 8)
	sum := b.Comb("sum", b.Add(b.R(a), b.R(c)))
	b.Output("out", b.R(sum))
	if err := b.G.Validate(); err != nil {
		t.Fatal(err)
	}
	return b.G, b
}

func TestResultWidthRules(t *testing.T) {
	cases := []struct {
		op        Op
		wa, wb, n int
		want      int
	}{
		{OpAdd, 8, 4, 0, 9},
		{OpSub, 4, 8, 0, 9},
		{OpMul, 8, 4, 0, 12},
		{OpDiv, 8, 4, 0, 8},
		{OpRem, 8, 4, 0, 4},
		{OpNeg, 8, 0, 0, 9},
		{OpAnd, 8, 4, 0, 8},
		{OpNot, 8, 0, 0, 8},
		{OpAndR, 8, 0, 0, 1},
		{OpEq, 8, 16, 0, 1},
		{OpShl, 8, 0, 3, 11},
		{OpShr, 8, 0, 3, 5},
		{OpShr, 8, 0, 20, 1},
		{OpDshr, 8, 5, 0, 8},
		{OpCat, 8, 4, 0, 12},
		{OpBits, 8, 0, 5, 5},
		{OpPad, 8, 0, 16, 16},
		{OpPad, 8, 0, 4, 8},
	}
	for _, c := range cases {
		if got := ResultWidth(c.op, c.wa, c.wb, c.n); got != c.want {
			t.Errorf("ResultWidth(%v, %d, %d, %d) = %d, want %d", c.op, c.wa, c.wb, c.n, got, c.want)
		}
	}
}

func TestOpArityAndCost(t *testing.T) {
	if OpMux.Arity() != 3 || OpNot.Arity() != 1 || OpAdd.Arity() != 2 || OpRef.Arity() != 0 {
		t.Fatal("arity table broken")
	}
	if OpMul.Cost() <= OpAdd.Cost() {
		t.Fatal("mul should cost more than add")
	}
	if !OpAdd.Commutative() || OpSub.Commutative() {
		t.Fatal("commutativity table broken")
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	g, _ := buildAdder(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	posOf := make(map[int32]int)
	for i, id := range order {
		posOf[id] = i
	}
	for _, n := range g.Nodes {
		if n.Expr == nil {
			continue
		}
		n.Expr.Walk(func(e *Expr) {
			if e.Op == OpRef && e.Node.Kind == KindComb {
				if posOf[int32(e.Node.ID)] > posOf[int32(n.ID)] {
					t.Fatalf("node %s ordered before its dep %s", n.Name, e.Node.Name)
				}
			}
		})
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	b := NewBuilder("cyc")
	// Two combs referencing each other.
	n1 := b.G.AddNode(&Node{Name: "x", Kind: KindComb, Width: 1})
	n2 := b.G.AddNode(&Node{Name: "y", Kind: KindComb, Width: 1})
	n1.Expr = Ref(n2)
	n2.Expr = Ref(n1)
	if _, err := b.G.TopoOrder(); err == nil {
		t.Fatal("expected cycle detection")
	}
}

func TestRegisterFeedbackIsLegal(t *testing.T) {
	b := NewBuilder("fb")
	r := b.Counter("c", 8, 1)
	b.Output("o", b.R(r))
	if err := b.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesWidthMismatch(t *testing.T) {
	b := NewBuilder("bad")
	a := b.Input("a", 8)
	n := b.Comb("n", b.R(a))
	n.Width = 9 // corrupt
	if err := b.G.Validate(); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestCloneIndependence(t *testing.T) {
	g, _ := buildAdder(t)
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone size differs")
	}
	// Mutating the clone must not touch the original.
	for _, n := range c.Nodes {
		if n.Kind == KindComb && !n.IsOutput {
			n.Expr = ConstUint(n.Width, 0)
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == KindComb && !n.IsOutput && n.Expr.Op == OpConst {
			t.Fatal("clone shares expressions with original")
		}
	}
	// Clone refs must point at clone nodes.
	for _, n := range c.Nodes {
		n.EachExpr(func(slot **Expr) {
			(*slot).Walk(func(e *Expr) {
				if e.Op == OpRef && c.Nodes[e.Node.ID] != e.Node {
					t.Fatal("clone ref escapes clone")
				}
			})
		})
	}
}

func TestSortTopologicalMakesIDOrderTopological(t *testing.T) {
	b := NewBuilder("s")
	in := b.Input("in", 8)
	// Build in reverse-ish order via forward decls.
	r := b.Reg("r", 8)
	x := b.Comb("x", b.Add(b.R(in), b.R(r)))
	y := b.Comb("y", b.Not(b.R(x)))
	b.SetNext(r, b.Fit(b.R(y), 8))
	b.Output("o", b.R(y))
	if err := b.G.SortTopological(); err != nil {
		t.Fatal(err)
	}
	for _, n := range b.G.Nodes {
		n.EachExpr(func(slot **Expr) {
			(*slot).Walk(func(e *Expr) {
				if e.Op == OpRef && e.Node.Kind == KindComb && e.Node.ID > n.ID && n.Kind != KindReg {
					// comb deps must come earlier except register next-exprs
					t.Fatalf("node %d reads later comb %d", n.ID, e.Node.ID)
				}
			})
		})
	}
}

func TestStructEqAndHash(t *testing.T) {
	b := NewBuilder("h")
	a := b.Input("a", 8)
	e1 := b.Add(b.R(a), b.C(8, 1))
	e2 := b.Add(b.R(a), b.C(8, 1))
	e3 := b.Add(b.R(a), b.C(8, 2))
	if !StructEq(e1, e2) {
		t.Fatal("identical trees not StructEq")
	}
	if StructEq(e1, e3) {
		t.Fatal("different consts StructEq")
	}
	// The structural hash a pass folds bottom-up: own fields, then each
	// argument's hash in order.
	var hash func(e *Expr) uint64
	hash = func(e *Expr) uint64 {
		h := e.HashSelf()
		for _, a := range e.Args {
			h = HashArg(h, hash(a))
		}
		return h
	}
	if hash(e1) != hash(e2) {
		t.Fatal("equal trees hash differently")
	}
	if hash(e1) == hash(e3) {
		t.Fatal("hash collision on trivially different trees (suspicious)")
	}
	// Operand order, slice bounds and widths all reach the hash.
	distinct := []*Expr{
		b.Sub(b.R(a), b.C(8, 1)), Binary(OpSub, b.C(8, 1), b.R(a)),
		b.Bits(b.R(a), 3, 0), b.Bits(b.R(a), 4, 1), b.Bits(b.R(a), 4, 0),
		Unary(OpPad, b.R(a), 9), Unary(OpPad, b.R(a), 10),
	}
	seen := map[uint64]*Expr{}
	for _, e := range distinct {
		if prev, dup := seen[hash(e)]; dup {
			t.Fatalf("%s and %s hash alike", prev, e)
		}
		seen[hash(e)] = e
	}
}

func TestExprCloneDeep(t *testing.T) {
	b := NewBuilder("c")
	a := b.Input("a", 8)
	e := b.Add(b.R(a), b.C(8, 1))
	c := e.Clone()
	c.Args[1].Imm.W[0] = 99
	if e.Args[1].Imm.Uint64() == 99 {
		t.Fatal("clone shares constant storage")
	}
}

func TestEvalExprMatchesBitvec(t *testing.T) {
	b := NewBuilder("e")
	x := b.Input("x", 16)
	y := b.Input("y", 16)
	vals := map[*Node]bitvec.BV{
		x: bitvec.FromUint64(16, 0xabcd),
		y: bitvec.FromUint64(16, 0x1234),
	}
	look := func(n *Node) bitvec.BV { return vals[n] }
	e := b.Mux(b.Lt(b.R(x), b.R(y)), b.R(x), b.R(y))
	got := EvalExpr(e, look)
	if got.Uint64() != 0x1234 {
		t.Fatalf("mux(lt) = %#x", got.Uint64())
	}
	e2 := b.Cat(b.R(x), b.R(y))
	if got := EvalExpr(e2, look); got.Uint64() != 0xabcd1234 {
		t.Fatalf("cat = %#x", got.Uint64())
	}
}

func TestStatsCounts(t *testing.T) {
	g, _ := buildAdder(t)
	s := g.ComputeStats()
	if s.Inputs != 2 || s.Outputs != 1 || s.Nodes != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBuilderCounterSemantics(t *testing.T) {
	b := NewBuilder("cnt")
	c := b.Counter("c", 4, 3)
	if c.Expr == nil || c.Expr.Width != 4 {
		t.Fatal("counter next not fitted to register width")
	}
}

func TestExprString(t *testing.T) {
	b := NewBuilder("s")
	a := b.Input("a", 8)
	e := b.Bits(b.Add(b.R(a), b.C(8, 1)), 3, 0)
	s := e.String()
	for _, frag := range []string{"bits(", "add(", "a", "3, 0"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}

// Property: ResultWidth is always >= 1 for valid inputs.
func TestResultWidthPositive(t *testing.T) {
	f := func(wa, wb uint8, n uint8) bool {
		a, bw := 1+int(wa%64), 1+int(wb%64)
		for _, op := range []Op{OpAdd, OpSub, OpMul, OpAnd, OpEq, OpCat, OpDshr, OpShr} {
			if ResultWidth(op, a, bw, int(n%8)) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
