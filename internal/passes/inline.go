package passes

import (
	"sort"
	"strconv"

	"gsim/internal/ir"
)

// inlineNodes dissolves combinational nodes into their readers when the
// paper's cost model says duplication is cheaper than keeping the node:
// inline when cost(f)·#refs ≤ cost(f) + cost_node (§III-B). Expressions
// larger than maxCost are never duplicated.
//
// Decisions are made in topological order with fully resolved expressions,
// so an inlined node's expression already reflects earlier inlining (its
// true post-substitution cost).
func inlineNodes(g *ir.Graph, costNode, maxCost int) int {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	// Reference occurrence counts (not distinct readers — every occurrence
	// re-evaluates the inlined expression); once a node is inlined, the
	// occurrences still to be replaced. keep marks what must stay a node:
	// anything but a plain combinational signal, outputs, reset signals.
	refs := make([]int, len(g.Nodes))
	keep := make([]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		n.EachRef(func(u *ir.Node) { refs[u.ID]++ })
		keep[n.ID] = keep[n.ID] || n.Kind != ir.KindComb || n.IsOutput
		if n.Kind == ir.KindReg && n.ResetSig != nil {
			keep[n.ResetSig.ID] = true
		}
	}

	// inlined[id] is the dissolved node's fully resolved expression and
	// cost[id] its cost. Every reader of a combinational node follows it in
	// topological order, so by a node's turn its operands are decided, an
	// inlined tree references surviving nodes only, and the occurrences
	// counted above are all there will ever be: each one but the last takes
	// a copy, and the last takes the tree itself — no tree has two owners.
	inlined := make([]*ir.Expr, len(g.Nodes))
	cost := make([]int, len(g.Nodes))
	// resolve substitutes the inlined nodes referenced under *pe and returns
	// the cost of the resolved tree.
	var resolve func(pe **ir.Expr) int
	resolve = func(pe **ir.Expr) int {
		e := *pe
		if e.Op == ir.OpRef {
			id := e.Node.ID
			repl := inlined[id]
			if repl == nil {
				return 0
			}
			if refs[id]--; refs[id] > 0 {
				repl = repl.Clone()
			}
			*pe = repl
			return cost[id]
		}
		c := e.Op.Cost()
		for i := range e.Args {
			c += resolve(&e.Args[i])
		}
		return c
	}
	c := 0
	resolveSlot := func(slot **ir.Expr) { c += resolve(slot) }

	count := 0
	for _, id := range order {
		n := g.Nodes[id]
		// Resolve references to already-inlined nodes first so this node's
		// cost reflects the substitutions.
		c = 0
		n.EachExpr(resolveSlot)
		k := refs[id]
		if keep[id] || k == 0 || c > maxCost { // k == 0: dead; DCE's business
			continue
		}
		// The paper's trade-off: keeping the node costs c + cost_node;
		// inlining costs c per reference.
		if c*k <= c+costNode {
			inlined[id], cost[id] = n.Expr, c
			g.Nodes[id] = nil
			count++
		}
	}
	return count
}

// vnInfo is one structurally distinct non-leaf subexpression extractCommon saw.
type vnInfo struct {
	expr  *ir.Expr // representative: the first occurrence
	at    int      // the representative's index in the pre-order numbering
	count int
	cost  int
	node  *ir.Node // the extracted node, once chosen
	key   string   // canonical rendering; filled only to break a cost tie
}

// extractCommon is the opposite direction: common subexpressions whose
// repeated evaluation costs more than a dedicated node are extracted into
// one (§III-B node extraction). Uses structural value numbering; chosen
// subexpressions become new combinational nodes and every occurrence is
// replaced by a reference.
func extractCommon(g *ir.Graph, costNode int) int {
	// One bottom-up recursion per tree numbers the non-leaf subexpressions
	// in pre-order and records each one's value number in vn (-1: a hash
	// collision, never extracted). A child's hash and cost fold into its
	// parent's, so no sub-tree is hashed or costed twice, and the rewrite
	// below walks the same trees in the same order and looks them up there.
	var infos []vnInfo
	var vn []int32
	var where []*ir.Expr        // the expression numbered at each position
	table := map[uint64]int32{} // structural hash -> index into infos
	var scan func(e *ir.Expr) (hash uint64, cost int)
	scan = func(e *ir.Expr) (uint64, int) {
		h := e.HashSelf()
		if e.Op == ir.OpRef || e.Op == ir.OpConst {
			return h, 0
		}
		at := len(vn)
		vn, where = append(vn, -1), append(where, e)
		cost := e.Op.Cost()
		for _, a := range e.Args {
			ah, ac := scan(a)
			h = ir.HashArg(h, ah)
			cost += ac
		}
		if id, ok := table[h]; !ok {
			table[h] = int32(len(infos))
			vn[at] = int32(len(infos))
			infos = append(infos, vnInfo{expr: e, at: at, count: 1, cost: cost})
		} else if ir.StructEq(infos[id].expr, e) {
			infos[id].count++
			vn[at] = id
		}
		return h, cost
	}
	originals := len(g.Nodes)
	for _, n := range g.Nodes {
		if n != nil {
			n.EachExpr(func(slot **ir.Expr) { scan(*slot) })
		}
	}

	// Candidates worth extracting: cost·k > cost + cost_node.
	var chosen []*vnInfo
	for i := range infos {
		if info := &infos[i]; info.count >= 2 && info.cost*info.count > info.cost+costNode {
			chosen = append(chosen, info)
		}
	}
	if len(chosen) == 0 {
		return 0
	}
	// Materialize larger expressions first so smaller chosen subexpressions
	// can still be referenced inside them. Ties break on the canonical
	// rendering, never on discovery order or the hash: extraction order names
	// the _cse nodes and so fixes the compiled program's layout, which must
	// stay bit-identical across builds and releases (design hash, snapshots).
	key := func(info *vnInfo) string {
		if info.key == "" {
			info.key = strconv.Itoa(info.expr.Width) + ":" + info.expr.String()
		}
		return info.key
	}
	sort.Slice(chosen, func(i, j int) bool {
		if chosen[i].cost != chosen[j].cost {
			return chosen[i].cost > chosen[j].cost
		}
		return key(chosen[i]) < key(chosen[j])
	})
	// The new node takes the representative tree itself. Its old place — in
	// an original node, or inside a larger representative — becomes a
	// reference to the new node before the rewrite can descend from there.
	name := append(make([]byte, 0, 24), "_cse"...) // room for the digits: one allocation per name
	for i, info := range chosen {
		info.node = g.AddNode(&ir.Node{
			Name:  string(strconv.AppendInt(name[:4], int64(i), 10)),
			Kind:  ir.KindComb,
			Width: info.expr.Width,
			Expr:  info.expr,
		})
	}

	// Rewrite every node in scan order, then the new CSE nodes (nesting)
	// below their own root, each from its representative's position.
	at := 0
	var replace func(pe **ir.Expr)
	replace = func(pe **ir.Expr) {
		e := *pe
		if e.Op == ir.OpRef || e.Op == ir.OpConst {
			return
		}
		if where[at] != e {
			// Only a tree reachable from two places can have changed under
			// the walk; rewriting by position would then corrupt it.
			panic("passes: extractCommon: expression " + e.String() + " is shared between trees")
		}
		if id := vn[at]; id >= 0 && infos[id].node != nil {
			at += e.CountOps()
			*pe = ir.Ref(infos[id].node)
			return
		}
		at++
		for i := range e.Args {
			replace(&e.Args[i])
		}
	}
	for _, n := range g.Nodes[:originals] {
		if n != nil {
			n.EachExpr(replace)
		}
	}
	for _, info := range chosen {
		at = info.at + 1
		for i := range info.expr.Args {
			replace(&info.expr.Args[i])
		}
	}
	return len(chosen)
}
