package passes

import "gsim/internal/ir"

// eliminateAliases removes combinational nodes whose expression is a bare
// reference to another node of the same width (the paper's Alias Nodes,
// Fig. 2 ❶), redirecting all readers to the original.
func eliminateAliases(g *ir.Graph) int {
	// Resolve alias chains: target[id] = ultimate non-alias node (nil until
	// resolved).
	target := make([]*ir.Node, len(g.Nodes))
	var resolve func(n *ir.Node) *ir.Node
	resolve = func(n *ir.Node) *ir.Node {
		if t := target[n.ID]; t != nil {
			return t
		}
		t := n
		if n.Kind == ir.KindComb && !n.IsOutput && n.Expr.Op == ir.OpRef && n.Expr.Node.Width == n.Width {
			target[n.ID] = n.Expr.Node // provisional, breaks cycles (none exist)
			t = resolve(n.Expr.Node)
		}
		target[n.ID] = t
		return t
	}
	removed := 0
	for _, n := range g.Nodes {
		if n != nil && resolve(n) != n {
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	var redirect func(e *ir.Expr)
	redirect = func(e *ir.Expr) {
		if e.Op == ir.OpRef {
			e.Node = resolve(e.Node)
		}
		for _, a := range e.Args {
			redirect(a)
		}
	}
	for id, n := range g.Nodes {
		if n == nil {
			continue
		}
		if target[id] != n {
			g.Nodes[id] = nil
			continue
		}
		n.EachExpr(func(slot **ir.Expr) { redirect(*slot) })
		if n.Kind == ir.KindReg && n.ResetSig != nil {
			n.ResetSig = resolve(n.ResetSig)
		}
	}
	return removed
}

// eliminateDead removes nodes unreachable (as transitive predecessors) from
// any output — the paper's Dead Nodes (Fig. 2 ❷), Shorted Nodes left behind
// by mux constant folding (❸), and Unused Registers including self-updating
// ones (❹). Memory write ports stay live only while some read port of the
// same memory is live.
//
// buf is the mark buffer, reused across the runs of one pipeline.
func eliminateDead(g *ir.Graph, buf *[]bool) int {
	if cap(*buf) < len(g.Nodes) {
		*buf = make([]bool, len(g.Nodes))
	}
	marked := (*buf)[:len(g.Nodes)]
	clear(marked)
	var stack []*ir.Node
	mark := func(n *ir.Node) {
		if n != nil && !marked[n.ID] {
			marked[n.ID] = true
			stack = append(stack, n)
		}
	}
	for _, n := range g.Nodes {
		if n != nil && n.IsOutput {
			mark(n)
		}
	}
	// Track memories with a live read port; their write ports become roots.
	memLive := make([]bool, len(g.Mems))
	writesOf := make([][]*ir.Node, len(g.Mems))
	for _, n := range g.Nodes {
		if n != nil && n.Kind == ir.KindMemWrite {
			writesOf[n.Mem.ID] = append(writesOf[n.Mem.ID], n)
		}
	}
	for {
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n.EachRef(mark)
			if n.Kind == ir.KindReg && n.ResetSig != nil {
				mark(n.ResetSig)
			}
			if n.Kind == ir.KindMemRead && !memLive[n.Mem.ID] {
				memLive[n.Mem.ID] = true
			}
		}
		// Promote write ports of newly live memories; loop if that marked
		// anything new.
		grew := false
		for mi, live := range memLive {
			if !live {
				continue
			}
			for _, w := range writesOf[mi] {
				if !marked[w.ID] {
					mark(w)
					grew = true
				}
			}
		}
		if !grew {
			break
		}
	}
	removed := 0
	for id, n := range g.Nodes {
		if n == nil || marked[id] {
			continue
		}
		if n.Kind == ir.KindInput {
			continue // inputs stay: they are the testbench interface
		}
		g.Nodes[id] = nil
		removed++
	}
	return removed
}
