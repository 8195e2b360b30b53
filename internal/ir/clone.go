package ir

import "gsim/internal/bitvec"

// Clone returns a deep copy of the graph: fresh nodes, fresh expression
// trees with references remapped to the new nodes, and fresh memories.
// Experiments use this to run many independent optimization pipelines over
// one elaborated design.
func (g *Graph) Clone() *Graph {
	g.mustHoldExprs()
	ng := NewGraph(g.Name)
	memMap := make(map[*Memory]*Memory, len(g.Mems))
	for _, m := range g.Mems {
		nm := &Memory{Name: m.Name, Depth: m.Depth, Width: m.Width}
		if m.Init != nil {
			nm.Init = make(map[int]bitvec.BV, len(m.Init))
			for k, v := range m.Init {
				nm.Init[k] = v.Clone()
			}
		}
		ng.AddMem(nm)
		memMap[m] = nm
	}
	// A node's copy sits at the node's own ID: ng.Nodes is the remap table.
	ng.Nodes = make([]*Node, len(g.Nodes))
	for id, n := range g.Nodes {
		if n == nil {
			continue
		}
		nn := &Node{
			ID:       id,
			Name:     n.Name,
			Kind:     n.Kind,
			Width:    n.Width,
			Init:     n.Init.Clone(),
			IsOutput: n.IsOutput,
		}
		if n.Mem != nil {
			nn.Mem = memMap[n.Mem]
		}
		ng.Nodes[id] = nn
	}
	for id, n := range g.Nodes {
		if n == nil {
			continue
		}
		nn := ng.Nodes[id]
		nn.Expr = n.Expr.cloneInto(ng.Nodes)
		nn.WAddr = n.WAddr.cloneInto(ng.Nodes)
		nn.WData = n.WData.cloneInto(ng.Nodes)
		nn.WEn = n.WEn.cloneInto(ng.Nodes)
		if n.ResetSig != nil {
			nn.ResetSig = ng.Nodes[n.ResetSig.ID]
		}
	}
	ng.freezeMems()
	return ng
}

// SortTopological compacts the graph and renumbers nodes so that ID order
// is a topological order of the value-dependence DAG. The compiled
// instruction stream then evaluates correctly as one linear sweep, and
// supernode member lists sorted by ID are dependence-ordered.
func (g *Graph) SortTopological() error {
	g.Compact()
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	nodes := make([]*Node, len(order))
	for i, id := range order {
		nodes[i] = g.Nodes[id]
	}
	g.Nodes = nodes
	for i, n := range g.Nodes {
		n.ID = i
	}
	g.freezeMems()
	return nil
}
