package passes

import (
	"strconv"

	"gsim/internal/ir"
)

// Normalize flattens every expression tree into single-operation nodes: the
// canonical "one IR node per register or logic unit" form the paper's graphs
// are in (Table I counts nodes this way). It is for counting in that form
// (the harness's paper-form node counts, the benchmark's passes.nodes_in);
// the compile path does not call it. Run optimizes the trees it is handed,
// and inlining a normalized graph mostly merges back what this split.
//
// Idempotent: a graph already in one-op form is returned unchanged.
// Returns the number of nodes created.
func Normalize(g *ir.Graph) int {
	created := 0
	var name []byte // scratch: a name costs one allocation, its final string
	// flatten makes every argument of e a leaf (ref or const), creating
	// nodes for interior operations bottom-up.
	var flatten func(owner string, e *ir.Expr)
	flatten = func(owner string, e *ir.Expr) {
		for i, a := range e.Args {
			if a.Op == ir.OpRef || a.Op == ir.OpConst {
				continue
			}
			flatten(owner, a)
			created++
			name = strconv.AppendInt(append(append(name[:0], owner...), '#'), int64(created), 10)
			e.Args[i] = ir.Ref(g.AddNode(&ir.Node{
				Name:  string(name),
				Kind:  ir.KindComb,
				Width: a.Width,
				Expr:  a,
			}))
		}
	}
	for _, n := range g.Nodes { // the nodes present now; those flatten appends are single-op already
		if n != nil {
			n.EachExpr(func(slot **ir.Expr) { flatten(n.Name, *slot) })
		}
	}
	if created > 0 {
		g.Compact()
	}
	return created
}
