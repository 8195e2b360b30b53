package passes

import (
	"fmt"
	"slices"

	"gsim/internal/bitvec"
	"gsim/internal/ir"
)

// bitSplit implements the paper's bit-level node splitting (§III-C, Fig. 4).
// When every reader of a multi-bit node accesses only bit slices, and the
// node's value is bitwise-decomposable (concatenations, bitwise logic,
// muxes, pads, slices), the node is split into one sub-node per accessed
// slice. Readers of an unchanged slice then stop being activated when only
// other slices change, reducing the activity factor.
//
// Splitting propagates: the sub-node expressions slice the original
// operands, turning full-width references upstream into slice references,
// which can make the upstream node splittable on the next round — the
// paper's path P0 P1 ... Pn. Rounds repeat to a fixed point (capped).
//
// How each node is read is gathered over the whole graph once; a round
// updates it for the expressions it removed, rewrote or added, and the next
// reconsiders only the nodes whose reads changed.
func bitSplit(g *ir.Graph) int {
	s := &splitter{g: g, uses: make([]useInfo, len(g.Nodes))}
	for _, n := range g.Nodes {
		if n != nil {
			s.accountNode(n, +1)
		}
	}
	total := 0
	for round, n := 0, -1; round < 6 && n != 0; round++ {
		n = s.round()
		total += n
	}
	return total
}

// sliceUse is one bits(ref) read: the range and the node reading it.
type sliceUse struct{ lo, hi, reader int32 }

// useInfo accumulates how a node is read.
type useInfo struct {
	full   int32 // full-width reads, including use as a reset signal
	dirty  bool  // reads changed since the node was last considered
	slices []sliceUse
	plan   *splitPlan // the node's split in the current round
}

// splitter is bitSplit's state; uses is indexed by node ID.
type splitter struct {
	g    *ir.Graph
	uses []useInfo
}

// accountNode adds n's reads of other nodes to their useInfo (by = +1), or
// takes them back out (-1); the two must see the same expressions.
func (s *splitter) accountNode(n *ir.Node, by int32) {
	n.EachExpr(func(slot **ir.Expr) { s.account(*slot, int32(n.ID), by) })
	if n.Kind == ir.KindReg && n.ResetSig != nil {
		s.account(ir.Ref(n.ResetSig), int32(n.ID), by)
	}
}

func (s *splitter) account(e *ir.Expr, reader, by int32) {
	switch {
	case e.Op == ir.OpBits && e.Args[0].Op == ir.OpRef:
		// The inner ref is a slice use, not a full use.
		u := &s.uses[e.Args[0].Node.ID]
		u.dirty = true
		su := sliceUse{int32(e.Lo), int32(e.Hi), reader}
		if by > 0 {
			u.slices = append(u.slices, su)
		} else if i := slices.Index(u.slices, su); i >= 0 {
			last := len(u.slices) - 1
			u.slices[i] = u.slices[last]
			u.slices = u.slices[:last]
		}
	case e.Op == ir.OpRef:
		u := &s.uses[e.Node.ID]
		u.dirty = true
		u.full += by
	default:
		for _, a := range e.Args {
			s.account(a, reader, by)
		}
	}
}

func (s *splitter) round() int {
	g := s.g
	// Select all candidates first, then rewrite once: a per-candidate
	// rewrite would make the pass quadratic in graph size (measured as
	// minutes on the BOOM-scale design).
	var plans []*splitPlan
	for id := range s.uses {
		u, d := &s.uses[id], g.Nodes[id]
		dirty := u.dirty
		u.dirty = false
		if !dirty || d == nil || d.IsOutput || d.Width < 2 || d.Kind != ir.KindComb && d.Kind != ir.KindReg {
			continue
		}
		if u.full > 0 || len(u.slices) < 2 {
			continue
		}
		cuts := cutPoints(d.Width, u.slices)
		if len(cuts) < 3 || len(cuts)-1 > DefaultMaxSplitParts {
			continue
		}
		if u.plan = planSplit(d, cuts); u.plan != nil {
			plans = append(plans, u.plan)
		}
	}
	if len(plans) == 0 {
		return 0
	}
	// Materialize sub-nodes for every plan.
	first := len(g.Nodes)
	for _, p := range plans {
		materialize(g, p)
	}
	s.uses = append(s.uses, make([]useInfo, len(g.Nodes)-first)...)
	// Redirect the surviving readers of the split nodes, and the new
	// sub-nodes (a split register's parts slice the original register
	// through its old name and must be redirected too).
	var work []int32
	for _, p := range plans {
		for _, su := range s.uses[p.node.ID].slices {
			if s.uses[su.reader].plan == nil {
				work = append(work, su.reader)
			}
		}
	}
	slices.Sort(work)
	work = slices.Compact(work)
	for id := first; id < len(g.Nodes); id++ {
		work = append(work, int32(id))
	}
	// Every read is taken out as it was put in — before anything is
	// rewritten — and put back as it then stands.
	for _, p := range plans {
		s.accountNode(p.node, -1)
		g.Nodes[p.node.ID] = nil
	}
	for _, id := range work {
		if int(id) < first {
			s.accountNode(g.Nodes[id], -1)
		}
	}
	for _, id := range work {
		g.Nodes[id].EachExpr(s.rewrite)
	}
	for _, id := range work {
		s.accountNode(g.Nodes[id], +1)
		s.uses[id].dirty = true
	}
	return len(plans)
}

// rewrite replaces every slice of a node split this round by its parts.
func (s *splitter) rewrite(pe **ir.Expr) {
	e := *pe
	if e.Op == ir.OpBits && e.Args[0].Op == ir.OpRef {
		if p := s.uses[e.Args[0].Node.ID].plan; p != nil {
			*pe = composeParts(p.cuts, p.parts, e.Hi, e.Lo)
			return
		}
	}
	for i := range e.Args {
		s.rewrite(&e.Args[i])
	}
}

// splitPlan is one node's pending bit-level split.
type splitPlan struct {
	node      *ir.Node
	cuts      []int
	partExprs []*ir.Expr
	parts     []*ir.Node
}

// planSplit checks decomposability and builds the per-part expressions
// without mutating the graph. Returns nil when the node does not decompose.
func planSplit(d *ir.Node, cuts []int) *splitPlan {
	nParts := len(cuts) - 1
	p := &splitPlan{node: d, cuts: cuts, partExprs: make([]*ir.Expr, nParts)}
	for i := 0; i < nParts; i++ {
		hi, lo := cuts[i+1]-1, cuts[i]
		pe := trySlice(d.Expr, hi, lo)
		if pe == nil {
			return nil
		}
		p.partExprs[i] = pe
	}
	return p
}

// materialize adds the sub-nodes for a plan.
func materialize(g *ir.Graph, p *splitPlan) {
	d := p.node
	p.parts = make([]*ir.Node, len(p.partExprs))
	for i := range p.partExprs {
		hi, lo := p.cuts[i+1]-1, p.cuts[i]
		nn := &ir.Node{
			Name:  fmt.Sprintf("%s_%d_%d", d.Name, hi, lo),
			Kind:  d.Kind,
			Width: hi - lo + 1,
			Expr:  p.partExprs[i],
		}
		if d.Kind == ir.KindReg {
			init := d.Init
			if init.Width == 0 {
				init = ir.ZeroInit(d)
			}
			nn.Init = bitvec.Bits(init, hi, lo)
			nn.ResetSig = d.ResetSig
		}
		p.parts[i] = g.AddNode(nn)
	}
}

// cutPoints returns the sorted distinct cut positions {0, ..., width}
// implied by the use ranges.
func cutPoints(width int, uses []sliceUse) []int {
	cuts := []int{0, width}
	for _, u := range uses {
		cuts = append(cuts, int(u.lo), int(u.hi)+1)
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// composeParts builds the expression for bits [hi:lo] of the split node out
// of sub-nodes. Direct use ranges land on cut points and map onto whole
// parts; ranges that arrived indirectly (a split register slicing itself
// through an offset) may overlap parts partially and get an inner slice.
func composeParts(cuts []int, parts []*ir.Node, hi, lo int) *ir.Expr {
	var pieces []*ir.Expr // low to high
	for i := 0; i < len(parts); i++ {
		pl, ph := cuts[i], cuts[i+1]-1
		if ph < lo || pl > hi {
			continue
		}
		ref := ir.Ref(parts[i])
		il, ih := pl, ph
		if il < lo {
			il = lo
		}
		if ih > hi {
			ih = hi
		}
		if il == pl && ih == ph {
			pieces = append(pieces, ref)
		} else {
			pieces = append(pieces, ir.BitsOf(ref, ih-pl, il-pl))
		}
	}
	e := pieces[0]
	for _, p := range pieces[1:] {
		e = ir.Binary(ir.OpCat, p, e)
	}
	return e
}

// trySlice returns a fresh expression computing bits [hi:lo] of e, or nil
// when e does not decompose bitwise. 0 <= lo <= hi < e.Width.
func trySlice(e *ir.Expr, hi, lo int) *ir.Expr {
	switch e.Op {
	case ir.OpRef:
		if lo == 0 && hi == e.Width-1 {
			return ir.Ref(e.Node)
		}
		return ir.BitsOf(ir.Ref(e.Node), hi, lo)
	case ir.OpConst:
		return ir.Const(bitvec.Bits(e.Imm, hi, lo))
	case ir.OpCat:
		h, l := e.Args[0], e.Args[1]
		if hi < l.Width {
			return trySlice(l, hi, lo)
		}
		if lo >= l.Width {
			return trySlice(h, hi-l.Width, lo-l.Width)
		}
		lp := trySlice(l, l.Width-1, lo)
		if lp == nil {
			return nil
		}
		hp := trySlice(h, hi-l.Width, 0)
		if hp == nil {
			return nil
		}
		return ir.Binary(ir.OpCat, hp, lp)
	case ir.OpAnd, ir.OpOr, ir.OpXor:
		a := sliceZextTry(e.Args[0], hi, lo)
		if a == nil {
			return nil
		}
		b := sliceZextTry(e.Args[1], hi, lo)
		if b == nil {
			return nil
		}
		return ir.Binary(e.Op, a, b)
	case ir.OpNot:
		a := trySlice(e.Args[0], hi, lo)
		if a == nil {
			return nil
		}
		return ir.Unary(ir.OpNot, a, 0)
	case ir.OpPad:
		return sliceZextTry(e.Args[0], hi, lo)
	case ir.OpBits:
		return trySlice(e.Args[0], e.Lo+hi, e.Lo+lo)
	case ir.OpMux:
		t := sliceZextTry(e.Args[1], hi, lo)
		if t == nil {
			return nil
		}
		f := sliceZextTry(e.Args[2], hi, lo)
		if f == nil {
			return nil
		}
		return ir.MuxOf(e.Args[0].Clone(), t, f)
	}
	return nil
}

// sliceZextTry slices e as if zero-extended: bits above e.Width read zero.
func sliceZextTry(e *ir.Expr, hi, lo int) *ir.Expr {
	w := hi - lo + 1
	if lo >= e.Width {
		return ir.ConstUint(w, 0)
	}
	if hi < e.Width {
		return trySlice(e, hi, lo)
	}
	inner := trySlice(e, e.Width-1, lo)
	if inner == nil {
		return nil
	}
	return fit(inner, w)
}
