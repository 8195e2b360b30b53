package passes

import (
	"sort"
	"strconv"

	"gsim/internal/ir"
)

// inlineNodes dissolves combinational nodes into their readers when the
// paper's cost model says duplication is cheaper than keeping the node:
// inline when cost(f)·#refs ≤ cost(f) + cost_node (§III-B). Expressions
// larger than DefaultMaxInlineCost are never duplicated; a single reader still takes one,
// since that moves the tree and copies nothing.
//
// Decisions are made in topological order with fully resolved expressions,
// so an inlined node's expression already reflects earlier inlining (its
// true post-substitution cost).
func inlineNodes(g *ir.Graph) int {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	// Reference occurrence counts (not distinct readers — every occurrence
	// re-evaluates the inlined expression); once a node is inlined, the
	// occurrences still to be replaced.
	refs := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		if n != nil {
			n.EachRef(func(u *ir.Node) { refs[u.ID]++ })
		}
	}
	keep := pinned(g)

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
		if keep[id] || k == 0 || (c > DefaultMaxInlineCost && k > 1) { // k == 0: dead; DCE's business
			continue
		}
		// The paper's trade-off: keeping the node costs c + cost_node;
		// inlining costs c per reference.
		if c*k <= c+DefaultCostNode {
			inlined[id], cost[id] = n.Expr, c
			g.Nodes[id] = nil
			count++
		}
	}
	return count
}

// pinned marks what must stay a node whatever the cost model says: anything
// but a plain combinational signal, outputs, reset signals.
func pinned(g *ir.Graph) []bool {
	keep := make([]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		keep[n.ID] = keep[n.ID] || n.Kind != ir.KindComb || n.IsOutput
		if n.Kind == ir.KindReg && n.ResetSig != nil {
			keep[n.ResetSig.ID] = true
		}
	}
	return keep
}

// vnInfo is one structurally distinct non-leaf subexpression extractCommon saw.
type vnInfo struct {
	expr  *ir.Expr // representative: the first occurrence the rewrite keeps
	at    int32    // the representative's index in the pre-order numbering
	last  int32    // the last occurrence's index (tail of the next chain)
	ops   int32    // pre-order positions the sub-tree spans: at … at+ops
	count int      // occurrences; once chosen, the references that will exist
	cost  int
	node  *ir.Node // the extracted node, once chosen
	key   string   // canonical rendering; filled only to break a tie
}

// extractCommon is the opposite direction: common subexpressions whose
// repeated evaluation costs more than a dedicated node are extracted into
// one (§III-B node extraction). Uses structural value numbering; chosen
// subexpressions become new combinational nodes and every occurrence is
// replaced by a reference.
//
// The k of the rule is the number of references the node will have after the
// rewrite, not the number of structural occurrences: extracting a larger
// candidate replaces all its occurrences but one, and a sub-tree inside a
// replaced occurrence needs no reference any more. The same holds for an
// existing node read only from such sub-trees: one left with a single
// reference is dissolved into its reader, as inlineNodes would have done.
// Returns the nodes extracted and the nodes dissolved.
func extractCommon(g *ir.Graph) (extracted, dissolved int) {
	// One bottom-up recursion per tree numbers the non-leaf subexpressions
	// in pre-order and records each one's value number in vn (-1: a hash
	// collision, never extracted) and the next occurrence of the same value
	// in next (-1: none; equal trees cannot nest, so discovery order is
	// position order). A child's hash and cost fold into its parent's, so no
	// sub-tree is hashed or costed twice, and the rewrite below walks the
	// same trees in the same order and looks them up there.
	var infos []vnInfo
	var vn, next []int32
	var where []*ir.Expr        // the expression numbered at each position
	table := map[uint64]int32{} // structural hash -> index into infos
	originals := len(g.Nodes)
	before := make([]int32, originals) // references to each node, by ID
	var scan func(e *ir.Expr) (hash uint64, cost int)
	scan = func(e *ir.Expr) (uint64, int) {
		h := e.HashSelf()
		if e.Op == ir.OpRef {
			before[e.Node.ID]++
			return h, 0
		}
		if e.Op == ir.OpConst {
			return h, 0
		}
		at := int32(len(vn))
		vn, next, where = append(vn, -1), append(next, -1), append(where, e)
		cost := e.Op.Cost()
		for _, a := range e.Args {
			ah, ac := scan(a)
			h = ir.HashArg(h, ah)
			cost += ac
		}
		if id, ok := table[h]; !ok {
			table[h] = int32(len(infos))
			vn[at] = int32(len(infos))
			infos = append(infos, vnInfo{expr: e, at: at, last: at, ops: int32(len(vn)) - at, count: 1, cost: cost})
		} else if info := &infos[id]; ir.StructEq(info.expr, e) {
			info.count++
			next[info.last], info.last = at, at
			vn[at] = id
		}
		return h, cost
	}
	for _, n := range g.Nodes {
		if n != nil {
			n.EachExpr(func(slot **ir.Expr) { scan(*slot) })
		}
	}

	// Candidates: cost·k > cost + cost_node on the occurrence count, an upper
	// bound of the k decided below.
	worth := func(info *vnInfo) bool {
		return info.count >= 2 && info.cost*info.count > info.cost+DefaultCostNode
	}
	var cands []*vnInfo
	for i := range infos {
		if worth(&infos[i]) {
			cands = append(cands, &infos[i])
		}
	}
	// Decide larger expressions first so smaller ones can still be referenced
	// inside them; at equal cost (zero-cost operators) the tree with more
	// operators first, since it may contain the other. Remaining ties break
	// on the canonical rendering, never on discovery order or the hash:
	// extraction order names the _cse nodes and so fixes the compiled
	// program's layout, which must stay bit-identical across builds (design
	// hash, snapshots).
	key := func(info *vnInfo) string {
		if info.key == "" {
			info.key = strconv.Itoa(info.expr.Width) + ":" + info.expr.String()
		}
		return info.key
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.cost != b.cost {
			return a.cost > b.cost
		}
		if a.ops != b.ops {
			return a.ops > b.ops
		}
		return key(a) < key(b)
	})
	// A candidate is decided on its visible occurrences: those outside every
	// replaced (non-representative) occurrence of a candidate chosen before
	// it. Choosing it hides its own occurrences but the first visible one.
	// Every earlier candidate's tree is at least as large, so a hidden range
	// never starts inside a visible occurrence and no position is hidden
	// twice: the marking is O(positions) over the whole loop.
	//
	// The new node takes the representative tree itself. Its old place — in
	// an original node, or inside a larger representative — becomes a
	// reference to the new node before the rewrite can descend from there.
	hidden := make([]bool, len(vn))
	var chosen []*vnInfo
	name := append(make([]byte, 0, 24), "_cse"...) // room for the digits: one allocation per name
	for _, info := range cands {
		rep := int32(-1)
		info.count = 0
		for p := info.at; p >= 0; p = next[p] {
			if !hidden[p] {
				if info.count++; rep < 0 {
					rep = p
				}
			}
		}
		if !worth(info) {
			continue
		}
		for p := next[rep]; p >= 0; p = next[p] {
			if hidden[p] {
				continue
			}
			for q := p; q < p+info.ops; q++ {
				hidden[q] = true
			}
		}
		info.at, info.expr = rep, where[rep]
		info.node = g.AddNode(&ir.Node{
			Name:  string(strconv.AppendInt(name[:4], int64(len(chosen)), 10)),
			Kind:  ir.KindComb,
			Width: info.expr.Width,
			Expr:  info.expr,
		})
		chosen = append(chosen, info)
	}
	if len(chosen) == 0 {
		return 0, 0
	}

	// Rewrite every node in scan order, then the new CSE nodes (nesting)
	// below their own root, each from its representative's position. The walk
	// never enters a hidden range: it stops at the occurrence that hides it.
	// So the references it meets are the ones that survive; after[id] counts
	// them and slot[id] is where the last one sits.
	after := make([]int32, originals)
	slot := make([]**ir.Expr, originals)
	at := int32(0)
	var replace func(pe **ir.Expr)
	replace = func(pe **ir.Expr) {
		e := *pe
		if e.Op == ir.OpRef {
			after[e.Node.ID]++
			slot[e.Node.ID] = pe
			return
		}
		if e.Op == ir.OpConst {
			return
		}
		if where[at] != e {
			// Only a tree reachable from two places can have changed under
			// the walk; rewriting by position would then corrupt it.
			panic("passes: extractCommon: expression " + e.String() + " is shared between trees")
		}
		if id := vn[at]; id >= 0 && infos[id].node != nil {
			at += infos[id].ops
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
	keep := pinned(g)
	for id, n := range g.Nodes[:originals] {
		if n != nil && !keep[id] && before[id] > 1 && after[id] == 1 {
			*slot[id] = n.Expr
			g.Nodes[id] = nil
			dissolved++
		}
	}
	return len(chosen), dissolved
}
