package passes

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/gen"
	"gsim/internal/ir"
)

// --- Simplify ---

func simplified(t *testing.T, e *ir.Expr) *ir.Expr {
	t.Helper()
	r, _ := simplifyExpr(e, true)
	return r
}

func TestSimplifyOneHot(t *testing.T) {
	// The paper's §III-B example: bits(dshl(1, a), k, k) → eq(a, k).
	b := ir.NewBuilder("oh")
	a := b.Input("a", 3)
	e := b.Bit(b.DshlFull(b.C(1, 1), b.R(a)), 5)
	r := simplified(t, e)
	if r.Op != ir.OpEq {
		t.Fatalf("one-hot pattern not recognized: %s", r)
	}
	if r.Args[1].Op != ir.OpConst || r.Args[1].Imm.Uint64() != 5 {
		t.Fatalf("wrong comparison constant: %s", r)
	}
	// Out-of-range bit is constant false.
	e2 := b.Bit(b.Fit(b.DshlFull(b.C(1, 1), b.R(a)), 16), 12)
	r2 := simplified(t, e2)
	if r2.Op != ir.OpConst || !r2.Imm.IsZero() {
		t.Fatalf("unreachable one-hot bit should fold to 0: %s", r2)
	}
}

func TestSimplifyAlgebra(t *testing.T) {
	b := ir.NewBuilder("alg")
	a := b.Input("a", 8)
	cases := []struct {
		name string
		in   *ir.Expr
		want func(e *ir.Expr) bool
	}{
		{"add-zero", b.Add(b.R(a), b.C(8, 0)), func(e *ir.Expr) bool { return e.Op == ir.OpPad && e.Args[0].Op == ir.OpRef }},
		{"sub-self", b.Sub(b.R(a), b.R(a)), func(e *ir.Expr) bool { return e.Op == ir.OpConst && e.Imm.IsZero() }},
		{"mul-zero", b.Mul(b.R(a), b.C(8, 0)), func(e *ir.Expr) bool { return e.Op == ir.OpConst && e.Imm.IsZero() }},
		{"and-ones", b.And(b.R(a), b.CB(bitvec.FromUint64(8, 0xff))), func(e *ir.Expr) bool { return e.Op == ir.OpRef }},
		{"xor-self", b.Xor(b.R(a), b.R(a)), func(e *ir.Expr) bool { return e.Op == ir.OpConst && e.Imm.IsZero() }},
		{"not-not", b.Not(b.Not(b.R(a))), func(e *ir.Expr) bool { return e.Op == ir.OpRef }},
		{"eq-self", b.Eq(b.R(a), b.R(a)), func(e *ir.Expr) bool { return e.Op == ir.OpConst && e.Imm.Uint64() == 1 }},
		{"mux-same", b.Mux(b.Fit(b.R(a), 1), b.R(a), b.R(a)), func(e *ir.Expr) bool { return e.Op != ir.OpMux }},
		{"fold", b.Add(b.C(8, 3), b.C(8, 4)), func(e *ir.Expr) bool { return e.Op == ir.OpConst && e.Imm.Uint64() == 7 }},
		{"bits-full", b.Bits(b.R(a), 7, 0), func(e *ir.Expr) bool { return e.Op == ir.OpRef }},
		{"bits-of-bits", b.Bits(b.Bits(b.R(a), 6, 1), 3, 2), func(e *ir.Expr) bool {
			return e.Op == ir.OpBits && e.Hi == 4 && e.Lo == 3
		}},
		{"shl-zero", b.Shl(b.R(a), 0), func(e *ir.Expr) bool { return e.Op == ir.OpRef }},
		{"mux-const-sel", ir.MuxOf(b.C(1, 1), b.R(a), b.C(8, 0)), func(e *ir.Expr) bool { return e.Op == ir.OpRef }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := c.in.Width
			r := simplified(t, c.in)
			if r.Width != w {
				t.Fatalf("width changed: %d -> %d", w, r.Width)
			}
			if !c.want(r) {
				t.Fatalf("unexpected rewrite: %s", r)
			}
		})
	}
}

func TestSimplifyBitsOfCat(t *testing.T) {
	b := ir.NewBuilder("bc")
	x := b.Input("x", 8)
	y := b.Input("y", 8)
	// bits(cat(x, y), 3, 0) → bits(y, 3, 0)
	r := simplified(t, b.Bits(b.Cat(b.R(x), b.R(y)), 3, 0))
	if r.Op != ir.OpBits || r.Args[0].Op != ir.OpRef || r.Args[0].Node != y {
		t.Fatalf("low slice of cat: %s", r)
	}
	// bits(cat(x, y), 15, 8) → x
	r2 := simplified(t, b.Bits(b.Cat(b.R(x), b.R(y)), 15, 8))
	if r2.Op != ir.OpRef || r2.Node != x {
		t.Fatalf("high slice of cat: %s", r2)
	}
}

// --- Redundant elimination ---

func TestAliasElimination(t *testing.T) {
	b := ir.NewBuilder("al")
	a := b.Input("a", 8)
	w1 := b.Comb("w1", b.R(a))  // alias of a
	w2 := b.Comb("w2", b.R(w1)) // alias of alias
	out := b.Output("o", b.Add(b.R(w2), b.C(8, 1)))
	removed := eliminateAliases(b.G)
	if removed != 2 {
		t.Fatalf("removed %d aliases, want 2", removed)
	}
	if !out.Expr.Args[0].RefersTo(a) && out.Expr.Args[0].Op != ir.OpRef {
		t.Fatalf("output not redirected: %s", out.Expr)
	}
}

func TestDeadAndUnusedRegElimination(t *testing.T) {
	b := ir.NewBuilder("dce")
	a := b.Input("a", 8)
	live := b.Comb("live", b.Not(b.R(a)))
	b.Output("o", b.R(live))
	b.Comb("dead", b.Add(b.R(a), b.C(8, 1)))
	// Self-updating register unused by anything else (paper Fig. 2 ❹).
	r := b.Reg("unused_reg", 8)
	b.SetNext(r, b.Add(b.R(r), b.C(8, 1)))
	removed := eliminateDead(b.G, new([]bool))
	if removed != 2 {
		t.Fatalf("removed %d nodes, want 2 (dead comb + unused reg)", removed)
	}
	if b.G.FindNode("dead") != nil || b.G.FindNode("unused_reg") != nil {
		t.Fatal("dead nodes still present")
	}
	if b.G.FindNode("live") == nil || b.G.FindNode("a") == nil {
		t.Fatal("live nodes removed")
	}
}

func TestMemLiveness(t *testing.T) {
	b := ir.NewBuilder("mem")
	a := b.Input("a", 4)
	m1 := b.Mem("m1", 16, 8)
	m2 := b.Mem("m2", 16, 8)
	rd := b.MemRead("rd", m1, b.R(a))
	b.MemWrite("w1", m1, b.R(a), b.R(rd), b.C(1, 1))
	// m2 written but never read: its write port is dead.
	b.MemWrite("w2", m2, b.R(a), b.Fit(b.R(a), 8), b.C(1, 1))
	b.Output("o", b.R(rd))
	eliminateDead(b.G, new([]bool))
	if b.G.FindNode("w1") == nil {
		t.Fatal("live memory write removed")
	}
	if b.G.FindNode("w2") != nil {
		t.Fatal("write to never-read memory kept")
	}
}

func TestShortedNodeElimination(t *testing.T) {
	// Fig. 2 ❸: G = mux(D, E+1, F) with D = const 1 discards F.
	b := ir.NewBuilder("sh")
	e := b.Input("E", 8)
	f := b.Comb("F", b.Not(b.R(e)))
	g := b.Comb("G", b.Mux(b.C(1, 1), b.AddW(b.R(e), b.C(8, 1), 8), b.R(f)))
	b.Output("o", b.R(g))
	simplifyGraph(b.G, true)
	eliminateAliases(b.G)
	eliminateDead(b.G, new([]bool))
	if b.G.FindNode("F") != nil {
		t.Fatal("shorted node F survived")
	}
}

// --- Inline / extract ---

func TestInlineCostModel(t *testing.T) {
	b := ir.NewBuilder("inl")
	a := b.Input("a", 8)
	// Cheap node referenced twice: cost 1, k=2 → 2 <= 1+2, inline.
	cheap := b.Comb("cheap", b.Not(b.R(a)))
	// Expensive node referenced 4 times: cost 6 (div), 24 > 8, keep.
	exp := b.Comb("exp", b.Div(b.R(a), b.C(8, 3)))
	sum := b.Comb("s1", b.Add(b.R(cheap), b.R(cheap)))
	s2 := b.Comb("s2", b.Add(b.Add(b.R(exp), b.R(exp)), b.Add(b.R(exp), b.R(exp))))
	b.Output("o", b.Add(b.R(sum), b.R(s2)))
	n := inlineNodes(b.G)
	if n == 0 {
		t.Fatal("nothing inlined")
	}
	if b.G.FindNode("cheap") != nil {
		t.Fatal("cheap node should be inlined away")
	}
	if b.G.FindNode("exp") == nil {
		t.Fatal("expensive shared node should be kept")
	}
}

func TestExtractCommon(t *testing.T) {
	b := ir.NewBuilder("cse")
	a := b.Input("a", 16)
	c := b.Input("b", 16)
	mk := func() *ir.Expr { return b.Mul(b.Fit(b.R(a), 16), b.Fit(b.R(c), 16)) }
	b.Output("o1", b.Add(mk(), b.C(32, 1)))
	b.Output("o2", b.Add(mk(), b.C(32, 2)))
	b.Output("o3", b.Sub(mk(), b.C(32, 3)))
	n, _ := extractCommon(b.G)
	if n != 1 {
		t.Fatalf("extracted %d, want 1", n)
	}
	// The multiply should now exist exactly once in the graph.
	muls := 0
	for _, node := range b.G.Live() {
		node.EachExpr(func(slot **ir.Expr) {
			(*slot).Walk(func(e *ir.Expr) {
				if e.Op == ir.OpMul {
					muls++
				}
			})
		})
	}
	if muls != 1 {
		t.Fatalf("%d multiplies after CSE, want 1", muls)
	}
}

// TestExtractCountsReferencesAfterNesting: extracting xor(pad(a), pad(b))
// leaves each operand one occurrence, inside the new node's body, so the
// operands must not be extracted as well. A pad costs nothing and is never a
// candidate, so the second case puts a not in its place: that one passes the
// rule on its occurrence count (1·4 > 1+2) and must fail it on the effective
// one.
func TestExtractCountsReferencesAfterNesting(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(b *ir.Builder, e *ir.Expr) *ir.Expr
	}{
		{"pad", func(b *ir.Builder, e *ir.Expr) *ir.Expr { return b.Fit(e, 32) }},
		{"not", func(b *ir.Builder, e *ir.Expr) *ir.Expr { return b.Not(e) }},
	} {
		b := ir.NewBuilder("nest")
		x, y := b.Input("a", 16), b.Input("b", 16)
		for i := 0; i < 4; i++ {
			common := b.Xor(tc.wrap(b, b.R(x)), tc.wrap(b, b.R(y)))
			b.Output(fmt.Sprintf("o%d", i), b.Add(common, b.C(common.Width, uint64(i))))
		}
		extracted, dissolved := extractCommon(b.G)
		if extracted != 1 || dissolved != 0 {
			t.Fatalf("%s: extracted %d, dissolved %d; want 1, 0", tc.name, extracted, dissolved)
		}
		cse := b.G.FindNode("_cse0")
		if cse == nil || cse.Expr.Op != ir.OpXor || cse.Expr.CountOps() != 3 {
			t.Fatalf("%s: _cse0 = %v, want the whole xor", tc.name, cse)
		}
		if err := b.G.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestExtractDissolvesOrphanedNode: a node read only from inside the replaced
// occurrences of an extracted expression is left with one reference and moves
// into the new node's body.
func TestExtractDissolvesOrphanedNode(t *testing.T) {
	b := ir.NewBuilder("orphan")
	x, y := b.Input("a", 16), b.Input("b", 16)
	m := b.Comb("m", b.Mul(b.R(x), b.R(y)))
	for i := 0; i < 3; i++ {
		common := b.Mul(b.R(m), b.Not(b.R(y)))
		b.Output(fmt.Sprintf("o%d", i), b.Add(common, b.C(common.Width, uint64(i))))
	}
	extracted, dissolved := extractCommon(b.G)
	if extracted != 1 || dissolved != 1 {
		t.Fatalf("extracted %d, dissolved %d; want 1, 1", extracted, dissolved)
	}
	b.G.Compact()
	if b.G.FindNode("m") != nil {
		t.Fatal("m survived with a single reference")
	}
	if err := b.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

// nodeLevelDesigns is what the node-level property test runs on: the FIRRTL
// test designs, the generated profiles that build quickly, a few random ones.
func nodeLevelDesigns(t *testing.T) map[string]*ir.Graph {
	designs := map[string]*ir.Graph{
		"stucore-like": gen.BuildProfile(gen.StuCoreLike()),
		"rocket-like":  gen.BuildProfile(gen.RocketLike()),
	}
	files, err := filepath.Glob("../../testdata/*.fir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no FIRRTL test designs: %v", err)
	}
	for _, f := range files {
		g, err := firrtl.LoadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		designs[filepath.Base(f)] = g
	}
	for seed := int64(40); seed < 44; seed++ {
		designs[fmt.Sprintf("random-%d", seed)] = gen.Random(seed, gen.DefaultRandomConfig())
	}
	return designs
}

// TestNodeLevelRuleHolds: after the full pipeline no node violates the rule
// that made it one — every _cse node has at least two references, Extracted
// is the number of _cse nodes, no plain node has a single reference — and a
// second Run finds nothing left to inline or extract. (Not on the random
// designs: there the second run's simplifier still finds rewrites in the
// inlined trees, and those change costs. Run does not simplify after inlining.)
func TestNodeLevelRuleHolds(t *testing.T) {
	for name, g := range nodeLevelDesigns(t) {
		g = g.Clone()
		Normalize(g)
		res := Run(g, All())
		refs := make([]int, len(g.Nodes))
		for _, n := range g.Nodes {
			n.EachRef(func(u *ir.Node) { refs[u.ID]++ })
		}
		cse := 0
		for id, keep := range pinned(g) {
			n := g.Nodes[id]
			if strings.HasPrefix(n.Name, "_cse") {
				if cse++; refs[id] < 2 {
					t.Errorf("%s: %s has %d references", name, n.Name, refs[id])
				}
			}
			if !keep && refs[id] == 1 {
				t.Errorf("%s: plain node %s kept for a single reference", name, n.Name)
			}
		}
		if cse != res.Extracted {
			t.Errorf("%s: Extracted = %d, graph has %d _cse nodes", name, res.Extracted, cse)
		}
		if strings.HasPrefix(name, "random-") {
			continue
		}
		nodes := len(g.Nodes)
		if again := Run(g, All()); again.Extracted != 0 || again.Inlined != 0 || len(g.Nodes) != nodes {
			t.Errorf("%s: second run: %s, nodes %d -> %d", name, again, nodes, len(g.Nodes))
		}
	}
}

// --- Reset hoisting ---

func TestResetHoisting(t *testing.T) {
	b := ir.NewBuilder("rst")
	rst := b.Input("reset", 1)
	d := b.Input("d", 8)
	r := b.RegInit("r", 8, bitvec.FromUint64(8, 0x5a))
	b.SetNext(r, b.Mux(b.R(rst), b.C(8, 0x5a), b.R(d)))
	b.Output("o", b.R(r))
	n := hoistResets(b.G)
	if n != 1 {
		t.Fatalf("hoisted %d, want 1", n)
	}
	if r.ResetSig == nil || r.ResetSig.Name != "reset" {
		t.Fatal("reset signal not recorded")
	}
	if r.Expr.RefersTo(rst) {
		t.Fatal("reset still in fast path")
	}
}

func TestResetHoistRequiresInitMatch(t *testing.T) {
	b := ir.NewBuilder("rst2")
	rst := b.Input("reset", 1)
	d := b.Input("d", 8)
	r := b.RegInit("r", 8, bitvec.FromUint64(8, 1))
	// Mux constant (7) differs from init (1): hoisting would change
	// power-on state, must be refused.
	b.SetNext(r, b.Mux(b.R(rst), b.C(8, 7), b.R(d)))
	b.Output("o", b.R(r))
	if n := hoistResets(b.G); n != 0 {
		t.Fatalf("hoisted %d, want 0 (init mismatch)", n)
	}
}

func TestResetHoistRequiresInputSignal(t *testing.T) {
	b := ir.NewBuilder("rst3")
	x := b.Input("x", 8)
	derived := b.Comb("derived_rst", b.Eq(b.R(x), b.C(8, 0)))
	d := b.Input("d", 8)
	r := b.Reg("r", 8)
	b.SetNext(r, b.Mux(b.R(derived), b.C(8, 0), b.R(d)))
	b.Output("o", b.R(r))
	if n := hoistResets(b.G); n != 0 {
		t.Fatalf("hoisted %d, want 0 (derived reset)", n)
	}
}

// --- Bit-level splitting ---

// TestBitSplitPaperExample reproduces the paper's Fig. 4: D = cat(C, B, A),
// E = not(D), F = bits(E, 1, 0), G = bits(E, 5, 2). After splitting, G must
// no longer transitively depend on A.
func TestBitSplitPaperExample(t *testing.T) {
	b := ir.NewBuilder("fig4")
	a := b.Input("A", 2)
	bb := b.Input("B", 2)
	c := b.Input("C", 2)
	d := b.Comb("D", b.CatAll(b.R(c), b.R(bb), b.R(a)))
	e := b.Comb("E", b.Not(b.R(d)))
	f := b.Comb("F", b.Bits(b.R(e), 1, 0))
	g := b.Comb("G", b.Bits(b.R(e), 5, 2))
	b.MarkOutput(f)
	b.MarkOutput(g)
	split := bitSplit(b.G)
	if split < 2 {
		t.Fatalf("split %d nodes, want >= 2 (D and E)", split)
	}
	simplifyGraph(b.G, true)
	eliminateAliases(b.G)
	eliminateDead(b.G, new([]bool))
	b.G.Compact()
	// Reachability: walk G's transitive predecessors; A must not appear.
	seen := map[*ir.Node]bool{}
	var stack []*ir.Node
	stack = append(stack, g)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n.EachExpr(func(slot **ir.Expr) {
			(*slot).Walk(func(x *ir.Expr) {
				if x.Op == ir.OpRef && !seen[x.Node] {
					seen[x.Node] = true
					stack = append(stack, x.Node)
				}
			})
		})
	}
	if seen[a] {
		t.Fatal("G still depends on A after bit splitting (Fig. 4 violated)")
	}
	if !seen[bb] || !seen[c] {
		t.Fatal("G lost its real dependencies")
	}
}

func TestBitSplitRejectsArithmetic(t *testing.T) {
	b := ir.NewBuilder("ns")
	x := b.Input("x", 8)
	y := b.Input("y", 8)
	d := b.Comb("D", b.AddW(b.R(x), b.R(y), 8)) // carries cross bits: not splittable
	f := b.Comb("F", b.Bits(b.R(d), 3, 0))
	g := b.Comb("G", b.Bits(b.R(d), 7, 4))
	b.MarkOutput(f)
	b.MarkOutput(g)
	if n := bitSplit(b.G); n != 0 {
		t.Fatalf("split %d arithmetic nodes, want 0", n)
	}
}

// --- Normalize ---

func TestNormalizeSingleOpForm(t *testing.T) {
	b := ir.NewBuilder("nm")
	a := b.Input("a", 8)
	b.Output("o", b.Add(b.Not(b.R(a)), b.Mul(b.Fit(b.R(a), 8), b.C(8, 3))))
	created := Normalize(b.G)
	if created == 0 {
		t.Fatal("nothing normalized")
	}
	for _, n := range b.G.Live() {
		n.EachExpr(func(slot **ir.Expr) {
			if (*slot).CountOps() > 1 {
				t.Fatalf("node %s still has %d ops", n.Name, (*slot).CountOps())
			}
		})
	}
	if again := Normalize(b.G); again != 0 {
		t.Fatalf("Normalize not idempotent: created %d more", again)
	}
}

// TestBitSplitUseTablesStayExact pins the bookkeeping the changed-set rounds
// rest on: after every round the incrementally maintained read tables equal
// tables gathered from scratch over the rewritten graph.
func TestBitSplitUseTablesStayExact(t *testing.T) {
	graphs := []*ir.Graph{gen.BuildProfile(gen.StuCoreLike())}
	for seed := int64(20); seed < 24; seed++ {
		graphs = append(graphs, gen.Random(seed, gen.DefaultRandomConfig()))
	}
	account := func(g *ir.Graph) *splitter {
		s := &splitter{g: g, uses: make([]useInfo, len(g.Nodes))}
		for _, n := range g.Nodes {
			if n != nil {
				s.accountNode(n, +1)
			}
		}
		return s
	}
	order := func(a, b sliceUse) int {
		return slices.Compare([]int32{a.lo, a.hi, a.reader}, []int32{b.lo, b.hi, b.reader})
	}
	rounds := 0
	for gi, g := range graphs {
		Normalize(g)
		simplifyGraph(g, true)
		s := account(g)
		for round := 0; round < 6 && s.round() > 0; round++ {
			rounds++
			fresh := account(g)
			for id, n := range g.Nodes {
				if n == nil {
					continue
				}
				got, want := s.uses[id], fresh.uses[id]
				slices.SortFunc(got.slices, order)
				slices.SortFunc(want.slices, order)
				if got.full != want.full || !slices.Equal(got.slices, want.slices) {
					t.Fatalf("graph %d round %d node %s: incremental %+v, from scratch %+v", gi, round, n, got, want)
				}
			}
		}
	}
	if rounds < 3 {
		t.Fatalf("only %d splitting rounds ran; the test exercises nothing", rounds)
	}
}

// TestPassesLeaveTreesSingleOwner: inlining and extraction move expression
// trees instead of copying them, so no *ir.Expr may end up reachable from
// two places — a later in-place rewrite through one would change the other.
func TestPassesLeaveTreesSingleOwner(t *testing.T) {
	graphs := []*ir.Graph{gen.BuildProfile(gen.StuCoreLike())}
	for seed := int64(30); seed < 34; seed++ {
		graphs = append(graphs, gen.Random(seed, gen.DefaultRandomConfig()))
	}
	for gi, g := range graphs {
		g = g.Clone() // builders alias sub-expressions freely; Clone hands every reader its own
		Normalize(g)
		res := Run(g, All())
		if gi == 0 && (res.Inlined == 0 || res.Extracted == 0) {
			t.Fatalf("stucore-like did not exercise both passes: %s", res)
		}
		owner := map[*ir.Expr]*ir.Node{}
		for _, n := range g.Nodes {
			n.EachExpr(func(slot **ir.Expr) {
				(*slot).Walk(func(e *ir.Expr) {
					if prev, dup := owner[e]; dup {
						t.Fatalf("graph %d: expression %s is reachable from %s and from %s", gi, e, prev, n)
					}
					owner[e] = n
				})
			})
		}
	}
}

// --- Semantics preservation (pass-level differential test) ---

// TestPassesPreserveSemantics runs every pass combination on random circuits
// and compares golden-model trajectories of the optimized and unoptimized
// graphs.
func TestPassesPreserveSemantics(t *testing.T) {
	combos := []Options{
		{Simplify: true},
		{Redundant: true},
		{Simplify: true, Redundant: true, Inline: true},
		{Simplify: true, Redundant: true, Extract: true},
		{ResetOpt: true},
		{BitSplit: true, Simplify: true, Redundant: true},
		All(),
	}
	for seed := int64(10); seed < 14; seed++ {
		g := gen.Random(seed, gen.DefaultRandomConfig())
		ref, err := engine.NewReference(g)
		if err != nil {
			t.Fatal(err)
		}
		var optimized []*engine.Reference
		var names []string
		for ci, opts := range combos {
			og := g.Clone()
			Normalize(og)
			Run(og, opts)
			if err := og.Validate(); err != nil {
				t.Fatalf("combo %d: invalid after passes: %v", ci, err)
			}
			r2, err := engine.NewReference(og)
			if err != nil {
				t.Fatal(err)
			}
			optimized = append(optimized, r2)
			names = append(names, fmt.Sprintf("combo%d", ci))
		}
		rng := rand.New(rand.NewSource(seed))
		inNames := inputNames(g)
		for cycle := 0; cycle < 40; cycle++ {
			for _, name := range inNames {
				v := bitvec.FromWords(96, []uint64{rng.Uint64(), rng.Uint64()})
				if name == "reset" {
					v = bitvec.FromUint64(1, uint64(rng.Intn(5)/4))
				}
				pokeByName(t, ref, g, name, v)
				for i, r2 := range optimized {
					pokeByName(t, r2, r2.Graph(), name, v)
					_ = i
				}
			}
			ref.Step()
			for i, r2 := range optimized {
				r2.Step()
				compareOutputs(t, names[i], cycle, ref, g, r2, r2.Graph())
			}
		}
	}
}

func inputNames(g *ir.Graph) []string {
	var out []string
	for _, n := range g.Nodes {
		if n != nil && n.Kind == ir.KindInput {
			out = append(out, n.Name)
		}
	}
	return out
}

func pokeByName(t *testing.T, s engine.Sim, g *ir.Graph, name string, v bitvec.BV) {
	t.Helper()
	n := g.FindNode(name)
	if n == nil {
		t.Fatalf("input %q missing", name)
	}
	s.Poke(n.ID, v)
}

func compareOutputs(t *testing.T, label string, cycle int, ref engine.Sim, gRef *ir.Graph, got engine.Sim, gGot *ir.Graph) {
	t.Helper()
	for _, n := range gRef.Nodes {
		if n == nil || !n.IsOutput {
			continue
		}
		m := gGot.FindNode(n.Name)
		if m == nil {
			t.Fatalf("%s: output %q missing after passes", label, n.Name)
		}
		a, b := ref.Peek(n.ID), got.Peek(m.ID)
		if !a.EqValue(b) {
			t.Fatalf("%s cycle %d: output %q: %s vs %s", label, cycle, n.Name, a, b)
		}
	}
}
