package emit

import (
	"fmt"
	"math/rand"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/ir"
)

// compile builds and compiles a single-output graph around the expression.
func compileExpr(t *testing.T, inputs []*ir.Node, g *ir.Graph, e *ir.Expr) (*Program, *ir.Node) {
	t.Helper()
	out := g.AddNode(&ir.Node{Name: "out", Kind: ir.KindComb, Width: e.Width, Expr: e, IsOutput: true})
	if err := g.SortTopological(); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return p, out
}

// randExpr builds a random expression over the inputs, depth-bounded.
func randExpr(rng *rand.Rand, b *ir.Builder, inputs []*ir.Node, depth int) *ir.Expr {
	if depth == 0 || rng.Intn(5) == 0 {
		if rng.Intn(4) == 0 {
			w := 1 + rng.Intn(130)
			v := bitvec.New(w)
			for i := range v.W {
				v.W[i] = rng.Uint64()
			}
			v = bitvec.Pad(v, w)
			return ir.Const(bitvec.FromWords(w, v.W))
		}
		return ir.Ref(inputs[rng.Intn(len(inputs))])
	}
	sub := func() *ir.Expr { return randExpr(rng, b, inputs, depth-1) }
	switch rng.Intn(14) {
	case 0:
		return b.Add(sub(), sub())
	case 1:
		return b.Sub(sub(), sub())
	case 2:
		x, y := sub(), sub()
		return b.Mul(b.Fit(x, min(x.Width, 48)), b.Fit(y, min(y.Width, 48)))
	case 3:
		x, y := sub(), sub()
		return b.Div(b.Fit(x, min(x.Width, 64)), b.Fit(y, min(y.Width, 64)))
	case 4:
		return b.And(sub(), sub())
	case 5:
		return b.Or(sub(), sub())
	case 6:
		return b.Xor(sub(), sub())
	case 7:
		return b.Not(sub())
	case 8:
		x := sub()
		hi := rng.Intn(x.Width)
		lo := rng.Intn(hi + 1)
		return ir.BitsOf(x, hi, lo)
	case 9:
		return b.Cat(sub(), sub())
	case 10:
		return b.Mux(b.Fit(sub(), 1), sub(), sub())
	case 11:
		x := sub()
		if rng.Intn(2) == 0 {
			return b.Shl(x, rng.Intn(70))
		}
		return b.Shr(x, rng.Intn(x.Width+10))
	case 12:
		x, y := sub(), sub()
		if rng.Intn(2) == 0 {
			return b.DshlFull(x, b.Fit(y, 1+rng.Intn(7)))
		}
		return b.Dshr(x, b.Fit(y, 16))
	default:
		switch rng.Intn(6) {
		case 0:
			return b.Eq(sub(), sub())
		case 1:
			return b.Lt(sub(), sub())
		case 2:
			return b.SLt(sub(), sub())
		case 3:
			return b.OrR(sub())
		case 4:
			return b.AndR(sub())
		default:
			return b.XorR(sub())
		}
	}
}

// midWidthShapes are the 65-128-bit shapes of the opcodes mid-width
// datapaths use — copy, add, sub, and, or, xor, not, mux, eq and neq — over
// inputs of the given widths, including one-word operands zero-extended into
// two-word results and operands wider than the result. They run on the wide
// fallback (execWide) like every other instruction wider than a word.
var midWidthShapes = []struct {
	name   string
	widths []int
	expr   func(b *ir.Builder, x []*ir.Expr) *ir.Expr
}{
	{"copy-96", []int{96}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return x[0] }},
	{"copy-pad-40-96", []int{40}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Fit(x[0], 96) }},
	{"add-64-64", []int{64, 64}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Add(x[0], x[1]) }},
	{"add-96-40", []int{96, 40}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Add(x[0], x[1]) }},
	{"add-127-127", []int{127, 127}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Add(x[0], x[1]) }},
	{"sub-96-96", []int{96, 96}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Sub(x[0], x[1]) }},
	{"sub-40-100", []int{40, 100}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Sub(x[0], x[1]) }},
	{"and-96-96", []int{96, 96}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.And(x[0], x[1]) }},
	{"and-128-40", []int{128, 40}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.And(x[0], x[1]) }},
	{"or-65-65", []int{65, 65}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Or(x[0], x[1]) }},
	{"or-20-128", []int{20, 128}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Or(x[0], x[1]) }},
	{"xor-128-128", []int{128, 128}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Xor(x[0], x[1]) }},
	{"xor-70-64", []int{70, 64}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Xor(x[0], x[1]) }},
	{"not-65", []int{65}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Not(x[0]) }},
	{"not-128", []int{128}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Not(x[0]) }},
	{"mux-96", []int{1, 96, 96}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Mux(x[0], x[1], x[2]) }},
	{"mux-128-40", []int{1, 128, 40}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Mux(x[0], x[1], x[2]) }},
	{"eq-96-96", []int{96, 96}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Eq(x[0], x[1]) }},
	{"eq-65-128", []int{65, 128}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Eq(x[0], x[1]) }},
	{"neq-96-20", []int{96, 20}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Neq(x[0], x[1]) }},
	{"neq-128-128", []int{128, 128}, func(b *ir.Builder, x []*ir.Expr) *ir.Expr { return b.Neq(x[0], x[1]) }},
}

// TestInterpreterMatchesEval is the emit-level property test: for random
// expression trees (narrow and wide), and for every mid-width shape over
// random values, the compiled interpreter must agree with the bitvec
// reference evaluator bit for bit.
func TestInterpreterMatchesEval(t *testing.T) {
	check := func(label string, rng *rand.Rand, widths []int, expr func(b *ir.Builder, x []*ir.Expr) *ir.Expr) {
		t.Helper()
		b := ir.NewBuilder(label)
		var inputs []*ir.Node
		var refs []*ir.Expr
		vals := map[*ir.Node]bitvec.BV{}
		for i, w := range widths {
			in := b.Input(fmt.Sprintf("i%d", i), w)
			inputs, refs = append(inputs, in), append(refs, ir.Ref(in))
			v := bitvec.New(w)
			for j := range v.W {
				v.W[j] = rng.Uint64()
			}
			vals[in] = bitvec.FromWords(w, v.W)
		}
		e := expr(b, refs)
		want := ir.EvalExpr(e, func(n *ir.Node) bitvec.BV { return vals[n] })

		p, out := compileExpr(t, inputs, b.G, e)
		m := NewMachine(p)
		for _, in := range inputs {
			m.Poke(in.ID, vals[in])
		}
		m.Exec(0, int32(len(p.Instrs)))
		got := m.Peek(out.ID)
		if !got.Equal(want) {
			t.Fatalf("%s: interp = %s, eval = %s\nexpr: %s", label, got, want, e)
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		widths := make([]int, 4)
		for i := range widths {
			widths[i] = 1 + rng.Intn(130)
		}
		check(fmt.Sprintf("x%d", seed), rng, widths, func(b *ir.Builder, x []*ir.Expr) *ir.Expr {
			var inputs []*ir.Node
			for _, r := range x {
				inputs = append(inputs, r.Node)
			}
			return randExpr(rng, b, inputs, 5)
		})
	}
	rng := rand.New(rand.NewSource(11))
	for _, sh := range midWidthShapes {
		for trial := 0; trial < 20; trial++ {
			check(fmt.Sprintf("%s/%d", sh.name, trial), rng, sh.widths, sh.expr)
		}
	}
}

func TestRegisterStorageSeparate(t *testing.T) {
	b := ir.NewBuilder("r")
	r := b.Counter("c", 8, 1)
	b.Output("o", b.R(r))
	if err := b.G.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(b.G)
	if err != nil {
		t.Fatal(err)
	}
	if p.Off[r.ID] == p.NextOff[r.ID] {
		t.Fatal("register cur/next share storage")
	}
	m := NewMachine(p)
	m.Exec(0, int32(len(p.Instrs)))
	// next = cur + 1 computed; cur unchanged until commit.
	if m.State[p.Off[r.ID]] != 0 || m.State[p.NextOff[r.ID]] != 1 {
		t.Fatalf("cur=%d next=%d", m.State[p.Off[r.ID]], m.State[p.NextOff[r.ID]])
	}
}

func TestRegisterInitApplied(t *testing.T) {
	b := ir.NewBuilder("i")
	r := b.RegInit("r", 16, bitvec.FromUint64(16, 0xbeef))
	b.SetNext(r, b.R(r))
	b.Output("o", b.R(r))
	if err := b.G.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(b.G)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p)
	if m.Peek(r.ID).Uint64() != 0xbeef {
		t.Fatalf("init not applied: %s", m.Peek(r.ID))
	}
}

func TestMemoryReadWrite(t *testing.T) {
	b := ir.NewBuilder("m")
	addr := b.Input("addr", 4)
	mem := b.Mem("m", 16, 100) // wide elements (2 words)
	mem.Init = map[int]bitvec.BV{
		3: bitvec.FromWords(100, []uint64{0xdeadbeef, 0x1}),
	}
	rd := b.MemRead("rd", mem, b.R(addr))
	b.Output("o", b.R(rd))
	if err := b.G.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(b.G)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p)
	m.Poke(addr.ID, bitvec.FromUint64(4, 3))
	m.Exec(0, int32(len(p.Instrs)))
	got := m.Peek(rd.ID)
	if got.W[0] != 0xdeadbeef || got.W[1] != 1 {
		t.Fatalf("wide mem read = %s", got)
	}
	// Out-of-range handled by address width here (4 bits = depth), so poke
	// a different address and expect zero.
	m.Poke(addr.ID, bitvec.FromUint64(4, 5))
	m.Exec(0, int32(len(p.Instrs)))
	if !m.Peek(rd.ID).IsZero() {
		t.Fatal("uninitialized element should read zero")
	}
}

func TestWideDivRejected(t *testing.T) {
	b := ir.NewBuilder("d")
	x := b.Input("x", 100)
	y := b.Input("y", 100)
	b.Output("o", &ir.Expr{Op: ir.OpDiv, Args: []*ir.Expr{b.R(x), b.R(y)}, Width: 100})
	if err := b.G.SortTopological(); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(b.G); err == nil {
		t.Fatal("expected wide-division compile error")
	}
}

func TestCodeAndDataSizes(t *testing.T) {
	b := ir.NewBuilder("s")
	x := b.Input("x", 32)
	b.Output("o", b.Add(b.R(x), b.C(32, 1)))
	if err := b.G.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(b.G)
	if err != nil {
		t.Fatal(err)
	}
	if p.CodeBytes() != len(p.Instrs)*InstrBytes {
		t.Fatal("CodeBytes inconsistent")
	}
	if p.DataBytes() != p.NumWords*8 {
		t.Fatal("DataBytes inconsistent")
	}
	if p.CodeBytes() == 0 || p.DataBytes() == 0 {
		t.Fatal("sizes should be nonzero")
	}
}

func TestConstPoolDeduplicated(t *testing.T) {
	b := ir.NewBuilder("c")
	x := b.Input("x", 32)
	e1 := b.Add(b.R(x), b.C(32, 12345))
	e2 := b.Xor(b.Fit(e1, 32), b.C(32, 12345))
	b.Output("o", e2)
	if err := b.G.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(b.G)
	if err != nil {
		t.Fatal(err)
	}
	// Count distinct const slots holding 12345.
	count := 0
	for _, w := range p.Init {
		if w == 12345 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("constant 12345 stored %d times, want 1", count)
	}
}

func TestPokeReportsChange(t *testing.T) {
	b := ir.NewBuilder("p")
	x := b.Input("x", 70)
	b.Output("o", b.Not(b.R(x)))
	if err := b.G.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, _ := Compile(b.G)
	m := NewMachine(p)
	v := bitvec.FromWords(70, []uint64{1, 1})
	if !m.Poke(x.ID, v) {
		t.Fatal("first poke should report change")
	}
	if m.Poke(x.ID, v) {
		t.Fatal("same-value poke should report no change")
	}
	v2 := bitvec.FromWords(70, []uint64{1, 2})
	if !m.Poke(x.ID, v2) {
		t.Fatal("high-word change missed")
	}
}

// TestFreePadCompilesToNothing: a zero-extension that adds no state word is
// an operand alias, not an instruction — in operand position the consumer
// reads the source slot at the padded width, at a root the argument compiles
// straight into the destination — and one that adds words stays a CCopy.
func TestFreePadCompilesToNothing(t *testing.T) {
	count := func(p *Program, op OpCode) (n int) {
		for _, in := range p.Instrs {
			if in.Op == op {
				n++
			}
		}
		return n
	}

	b := ir.NewBuilder("operand")
	a, c := b.Input("a", 5), b.Input("c", 7)
	p, out := compileExpr(t, nil, b.G, b.Cat(b.Fit(b.R(a), 12), b.R(c)))
	if len(p.Instrs) != 1 || p.Instrs[0].Op != CCat {
		t.Fatalf("cat(pad(a), c): instructions %+v, want one CCat", p.Instrs)
	}
	if in := p.Instrs[0]; in.A != p.Off[a.ID] || in.AW != 12 || in.BW != 7 || in.D != p.Off[out.ID] {
		t.Fatalf("cat(pad(a), c): %+v, want A = a's slot %d read at width 12", in, p.Off[a.ID])
	}

	b = ir.NewBuilder("root")
	a, c = b.Input("a", 5), b.Input("c", 7)
	p, out = compileExpr(t, nil, b.G, b.Fit(b.Fit(b.Xor(b.R(a), b.R(c)), 20), 40))
	if len(p.Instrs) != 1 || p.Instrs[0].Op != CXor || p.Instrs[0].D != p.Off[out.ID] {
		t.Fatalf("pad(pad(xor)) at a root: instructions %+v, want one CXor into the node's slot %d", p.Instrs, p.Off[out.ID])
	}

	b = ir.NewBuilder("words")
	a = b.Input("a", 32)
	p, _ = compileExpr(t, nil, b.G, b.Not(b.Fit(b.R(a), 100)))
	if count(p, CCopy) != 1 || p.Instrs[0].DW != 100 || p.Instrs[0].AW != 32 {
		t.Fatalf("not(pad(a, 100)) of a 32-bit a: instructions %+v, want a 32->100 CCopy first", p.Instrs)
	}
	// Equal word counts above one word fold as well.
	b = ir.NewBuilder("wide")
	a = b.Input("a", 70)
	p, _ = compileExpr(t, nil, b.G, b.Not(b.Fit(b.R(a), 100)))
	if count(p, CCopy) != 0 || p.Instrs[0].A != p.Off[a.ID] || p.Instrs[0].AW != 100 {
		t.Fatalf("not(pad(a, 100)) of a 70-bit a: instructions %+v, want a's slot read at width 100", p.Instrs)
	}
}
