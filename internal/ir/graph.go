package ir

import (
	"errors"
	"fmt"
	"sort"
	"unsafe"

	"gsim/internal/bitvec"
)

// Graph is the dataflow graph for one elaborated circuit. Nodes are indexed
// by ID; deleted nodes are nil until Compact is called.
//
// A graph can be released (ReleaseExprs): its nodes and memories stay, their
// expression trees go. A compiled design's graph is released, since the
// simulation reads only node identities, widths and initial values; a walk
// over a released graph's edges panics with ErrReleased.
type Graph struct {
	Name  string
	Nodes []*Node
	Mems  []*Memory

	released bool
}

// ErrReleased is the refusal for a graph whose expressions were released:
// walks over its edges panic with it, compilers return it.
var ErrReleased = errors.New("ir: the graph's expressions were released when its design was compiled; core.Optimize returns a graph that keeps them")

// ReleaseExprs drops every node's expression trees (Expr, WAddr, WData, WEn)
// and marks the graph released. Names, kinds, widths, reset signals, initial
// values and memories stay.
func (g *Graph) ReleaseExprs() {
	for _, n := range g.Nodes {
		if n != nil {
			n.Expr, n.WAddr, n.WData, n.WEn = nil, nil, nil, nil
			n.released = true
		}
	}
	g.released = true
}

// Released reports whether ReleaseExprs dropped the graph's expressions.
func (g *Graph) Released() bool { return g.released }

// mustHoldExprs panics on a released graph, for the walks that do not reach
// Node.EachExpr before they would misread one.
func (g *Graph) mustHoldExprs() {
	if g.released {
		panic(ErrReleased)
	}
}

// ResidentBytes estimates the heap a released graph keeps alive: the node
// table, the nodes, their names and initial values, and the memories' names,
// port lists and initial contents. Expression trees are not counted.
func (g *Graph) ResidentBytes() int {
	const word = int(unsafe.Sizeof(uintptr(0)))
	b := int(unsafe.Sizeof(*g)) + len(g.Name) + cap(g.Nodes)*word
	for _, n := range g.Nodes {
		if n != nil {
			b += int(unsafe.Sizeof(*n)) + len(n.Name) + 8*cap(n.Init.W)
		}
	}
	for _, m := range g.Mems {
		b += word + int(unsafe.Sizeof(*m)) + len(m.Name) + (cap(m.Reads)+cap(m.Writes))*word
		for _, v := range m.Init {
			b += 2*word + int(unsafe.Sizeof(v)) + 8*cap(v.W)
		}
	}
	return b
}

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name}
}

// AddNode appends a node, assigning its ID.
func (g *Graph) AddNode(n *Node) *Node {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n
}

// AddMem appends a memory, assigning its ID.
func (g *Graph) AddMem(m *Memory) *Memory {
	m.ID = len(g.Mems)
	g.Mems = append(g.Mems, m)
	return m
}

// Live returns the non-nil nodes.
func (g *Graph) Live() []*Node {
	out := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// NumNodes returns the count of live nodes ("IR node" in the paper's Table I).
func (g *Graph) NumNodes() int {
	c := 0
	for _, n := range g.Nodes {
		if n != nil {
			c++
		}
	}
	return c
}

// NumEdges returns the count of dataflow edges ("IR edge" in Table I): one
// edge per (referencing node, referenced node) pair, counted with
// multiplicity per distinct pair.
func (g *Graph) NumEdges() int {
	c := 0
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		seen := map[int]bool{}
		n.EachRef(func(u *Node) { seen[u.ID] = true })
		c += len(seen)
	}
	return c
}

// Compact renumbers nodes densely, dropping nil entries, and rebuilds memory
// port lists. Expression Node pointers remain valid since nodes are shared.
func (g *Graph) Compact() {
	live := g.Live()
	g.Nodes = g.Nodes[:0]
	for _, n := range live {
		n.ID = len(g.Nodes)
		g.Nodes = append(g.Nodes, n)
	}
	g.freezeMems()
}

func (g *Graph) freezeMems() {
	for _, m := range g.Mems {
		m.Reads = m.Reads[:0]
		m.Writes = m.Writes[:0]
	}
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		switch n.Kind {
		case KindMemRead:
			n.Mem.Reads = append(n.Mem.Reads, n)
		case KindMemWrite:
			n.Mem.Writes = append(n.Mem.Writes, n)
		}
	}
}

// Adjacency holds successor and predecessor lists per node ID (deduplicated,
// sorted). Edges express value dependence: an edge u->v means v's expressions
// reference u's value.
type Adjacency struct {
	Succs [][]int32
	Preds [][]int32
}

// BuildAdjacency computes the adjacency lists from node expressions.
func (g *Graph) BuildAdjacency() *Adjacency {
	n := len(g.Nodes)
	adj := &Adjacency{Succs: make([][]int32, n), Preds: make([][]int32, n)}
	for _, v := range g.Nodes {
		if v == nil {
			continue
		}
		seen := map[int32]bool{}
		v.EachRef(func(n *Node) {
			if u := int32(n.ID); !seen[u] {
				seen[u] = true
				adj.Preds[v.ID] = append(adj.Preds[v.ID], u)
				adj.Succs[u] = append(adj.Succs[u], int32(v.ID))
			}
		})
	}
	for i := range adj.Succs {
		sortInt32(adj.Succs[i])
		sortInt32(adj.Preds[i])
	}
	return adj
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// TopoOrder returns all live node IDs in a deterministic topological order of
// the value-dependence DAG. Register and memory-write nodes depend on their
// expression inputs like any combinational node (they compute next-cycle
// state); register *reads* do not create dependence edges into the register's
// next-value computation because the current value is stable within a cycle —
// but in this IR a register node is both the holder of the current value and
// the computer of the next value, so a register may appear before nodes that
// read it. To keep evaluation correct, the returned order is a topological
// sort treating register nodes as SOURCES for their readers (reads see the
// old value via separate storage) and as ordinary consumers of their
// next-value inputs. Concretely: edges u->v are included for every reference
// unless u is a register or input, in which case u is still ordered before v
// if possible but cycles through registers are legal and broken at the
// register.
//
// Implementation: run Kahn's algorithm on the edge set excluding out-edges of
// registers, inputs, and memory-read... (memory reads are combinational, so
// their out-edges ARE included). Only register and input out-edges are
// excluded, which provably breaks all cycles in a well-formed synchronous
// design. An error is returned if a combinational cycle remains.
func (g *Graph) TopoOrder() ([]int32, error) {
	n := len(g.Nodes)
	indeg := make([]int32, n)
	succs := make([][]int32, n)
	seenBy := make([]int32, n) // 1 + ID of the last reader an edge from this node was recorded for
	for _, v := range g.Nodes {
		if v == nil {
			continue
		}
		vid := int32(v.ID)
		v.EachRef(func(u *Node) {
			if u.Kind == KindReg || u.Kind == KindInput {
				return // current-value read: no ordering constraint
			}
			if seenBy[u.ID] != vid+1 {
				seenBy[u.ID] = vid + 1
				succs[u.ID] = append(succs[u.ID], vid)
				indeg[vid]++
			}
		})
	}
	// Deterministic Kahn: a min-heap over ready IDs would be O(n log n); a
	// simple monotone queue seeded in ID order is deterministic enough and
	// O(V+E) — ready nodes are appended in discovery order after an initial
	// ID-ordered seed.
	order := make([]int32, 0, n)
	queue := make([]int32, 0, n)
	for id, v := range g.Nodes {
		if v != nil && indeg[id] == 0 {
			queue = append(queue, int32(id))
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range succs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != g.NumNodes() {
		return nil, fmt.Errorf("ir: combinational cycle detected (%d of %d nodes ordered)", len(order), g.NumNodes())
	}
	return order, nil
}

// Validate checks structural invariants: widths consistent with operator
// rules, references to live nodes, register init widths, memory port shapes,
// and acyclicity. It returns the first problem found.
func (g *Graph) Validate() error {
	if err := g.ValidateNodes(); err != nil {
		return err
	}
	_, err := g.TopoOrder()
	return err
}

// ValidateNodes is Validate without the acyclicity check, for a caller that
// holds a topological order already (SortTopological just succeeded).
func (g *Graph) ValidateNodes() error {
	g.mustHoldExprs()
	for id, n := range g.Nodes {
		if n == nil {
			continue
		}
		if n.ID != id {
			return fmt.Errorf("node %q: ID %d stored at index %d", n.Name, n.ID, id)
		}
		if n.Width <= 0 && n.Kind != KindMemWrite {
			return fmt.Errorf("node %q: width %d", n.Name, n.Width)
		}
		switch n.Kind {
		case KindInput:
			if n.Expr != nil {
				return fmt.Errorf("input %q has an expression", n.Name)
			}
		case KindComb:
			if n.Expr == nil {
				return fmt.Errorf("comb %q has no expression", n.Name)
			}
			if n.Expr.Width != n.Width {
				return fmt.Errorf("comb %q: expr width %d != node width %d", n.Name, n.Expr.Width, n.Width)
			}
		case KindReg:
			if n.Expr == nil {
				return fmt.Errorf("reg %q has no next expression", n.Name)
			}
			if n.Expr.Width != n.Width {
				return fmt.Errorf("reg %q: next width %d != reg width %d", n.Name, n.Expr.Width, n.Width)
			}
			if n.Init.Width != 0 && n.Init.Width != n.Width {
				return fmt.Errorf("reg %q: init width %d != reg width %d", n.Name, n.Init.Width, n.Width)
			}
			if n.ResetSig != nil && n.ResetSig.Width != 1 {
				return fmt.Errorf("reg %q: reset signal width %d != 1", n.Name, n.ResetSig.Width)
			}
		case KindMemRead:
			if n.Mem == nil || n.Expr == nil {
				return fmt.Errorf("memread %q incomplete", n.Name)
			}
			if n.Width != n.Mem.Width {
				return fmt.Errorf("memread %q: width %d != mem width %d", n.Name, n.Width, n.Mem.Width)
			}
		case KindMemWrite:
			if n.Mem == nil || n.WAddr == nil || n.WData == nil || n.WEn == nil {
				return fmt.Errorf("memwrite %q incomplete", n.Name)
			}
			if n.WData.Width != n.Mem.Width {
				return fmt.Errorf("memwrite %q: data width %d != mem width %d", n.Name, n.WData.Width, n.Mem.Width)
			}
			if n.WEn.Width != 1 {
				return fmt.Errorf("memwrite %q: enable width %d != 1", n.Name, n.WEn.Width)
			}
		default:
			return fmt.Errorf("node %q: invalid kind", n.Name)
		}
		var exprErr error
		n.EachExpr(func(slot **Expr) {
			(*slot).Walk(func(e *Expr) {
				if exprErr != nil {
					return
				}
				if err := validateExpr(g, e); err != nil {
					exprErr = fmt.Errorf("node %q: %v", n.Name, err)
				}
			})
		})
		if exprErr != nil {
			return exprErr
		}
	}
	return nil
}

func validateExpr(g *Graph, e *Expr) error {
	if len(e.Args) != e.Op.Arity() {
		return fmt.Errorf("%v: arity %d, want %d", e.Op, len(e.Args), e.Op.Arity())
	}
	switch e.Op {
	case OpRef:
		t := e.Node
		if t == nil || t.ID >= len(g.Nodes) || g.Nodes[t.ID] != t {
			return fmt.Errorf("ref to dead or foreign node %v", t)
		}
		if e.Width != t.Width {
			return fmt.Errorf("ref %q: width %d != node width %d", t.Name, e.Width, t.Width)
		}
	case OpConst:
		if e.Imm.Width != e.Width {
			return fmt.Errorf("const width mismatch: %d vs %d", e.Imm.Width, e.Width)
		}
	case OpBits:
		a := e.Args[0]
		if e.Hi < e.Lo || e.Lo < 0 || e.Hi >= a.Width {
			return fmt.Errorf("bits(%d,%d) out of range for width %d", e.Hi, e.Lo, a.Width)
		}
		if e.Width != e.Hi-e.Lo+1 {
			return fmt.Errorf("bits width %d != %d", e.Width, e.Hi-e.Lo+1)
		}
	case OpMux:
		if e.Args[0].Width != 1 {
			return fmt.Errorf("mux selector width %d", e.Args[0].Width)
		}
		if e.Args[1].Width != e.Args[2].Width || e.Width != e.Args[1].Width {
			return fmt.Errorf("mux arm widths %d/%d, node %d", e.Args[1].Width, e.Args[2].Width, e.Width)
		}
	case OpPad, OpSExt:
		if e.Width < e.Args[0].Width {
			return fmt.Errorf("%v narrows %d -> %d", e.Op, e.Args[0].Width, e.Width)
		}
	case OpShl:
		if e.Width != e.Args[0].Width+e.Lo {
			return fmt.Errorf("shl width %d != %d+%d", e.Width, e.Args[0].Width, e.Lo)
		}
	case OpCat:
		if e.Width != e.Args[0].Width+e.Args[1].Width {
			return fmt.Errorf("cat width %d != %d+%d", e.Width, e.Args[0].Width, e.Args[1].Width)
		}
	}
	return nil
}

// Stats summarizes a graph for reporting.
type Stats struct {
	Name     string
	Nodes    int
	Edges    int
	Inputs   int
	Outputs  int
	Regs     int
	Mems     int
	MemBits  int
	TotalOps int
}

// ComputeStats gathers Stats for the graph.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Name: g.Name, Nodes: g.NumNodes(), Edges: g.NumEdges(), Mems: len(g.Mems)}
	for _, m := range g.Mems {
		s.MemBits += m.Depth * m.Width
	}
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		switch n.Kind {
		case KindInput:
			s.Inputs++
		case KindReg:
			s.Regs++
		}
		if n.IsOutput {
			s.Outputs++
		}
		n.EachExpr(func(slot **Expr) {
			s.TotalOps += (*slot).CountOps()
		})
	}
	return s
}

// FindNode returns the live node with the given name, or nil.
func (g *Graph) FindNode(name string) *Node {
	for _, n := range g.Nodes {
		if n != nil && n.Name == name {
			return n
		}
	}
	return nil
}

// ZeroInit returns a zero BV of the node's width, used as the default
// register initial value.
func ZeroInit(n *Node) bitvec.BV { return bitvec.New(n.Width) }
