package ir

import (
	"fmt"

	"gsim/internal/bitvec"
)

// NodeKind classifies graph nodes.
type NodeKind uint8

// Node kinds.
const (
	KindInvalid  NodeKind = iota
	KindInput             // external input; value set by Poke
	KindComb              // combinational signal; Expr is its value
	KindReg               // register; Expr computes the next value
	KindMemRead           // combinational memory read port; Expr is the address
	KindMemWrite          // synchronous memory write port; WAddr/WData/WEn
)

var kindNames = [...]string{
	KindInvalid:  "invalid",
	KindInput:    "input",
	KindComb:     "comb",
	KindReg:      "reg",
	KindMemRead:  "memread",
	KindMemWrite: "memwrite",
}

// String returns the kind name.
func (k NodeKind) String() string { return kindNames[k] }

// Memory is a word-addressed RAM with combinational read ports and
// synchronous write ports (writes become visible at the end of the cycle,
// like register updates).
type Memory struct {
	ID    int
	Name  string
	Depth int // number of elements
	Width int // bits per element

	// Init optionally preloads the memory contents at Reset; indexed by
	// address, missing entries are zero.
	Init map[int]bitvec.BV

	// Reads and Writes are filled in by Graph.Freeze with the port nodes.
	Reads  []*Node
	Writes []*Node
}

// AddrWidth returns the width of this memory's address inputs.
func (m *Memory) AddrWidth() int {
	w := 1
	for (1 << uint(w)) < m.Depth {
		w++
	}
	return w
}

// Node is a vertex of the dataflow graph.
type Node struct {
	ID    int
	Name  string
	Kind  NodeKind
	Width int

	// Expr is the node's value computation: the signal value for KindComb,
	// the next-cycle value for KindReg, and the read address for KindMemRead.
	// Nil for KindInput and KindMemWrite.
	Expr *Expr

	// Register metadata. Init is the reset value. After the reset-extraction
	// pass (passes.ResetOpt), ResetSig holds the 1-bit reset signal that was
	// hoisted out of Expr; engines with the reset slow path enabled must then
	// apply Init whenever ResetSig is high at the end of a cycle.
	Init     bitvec.BV
	ResetSig *Node

	// Memory port fields.
	Mem   *Memory
	WAddr *Expr
	WData *Expr
	WEn   *Expr

	// IsOutput marks externally observable nodes; they are never eliminated.
	IsOutput bool
}

// String returns a short description of the node.
func (n *Node) String() string {
	return fmt.Sprintf("%s %s:%d (id %d)", n.Kind, n.Name, n.Width, n.ID)
}

// EachExpr calls f with a pointer to each of the node's root expression
// slots, allowing passes to rewrite them in place. Nil slots are skipped.
func (n *Node) EachExpr(f func(slot **Expr)) {
	if n.Expr != nil {
		f(&n.Expr)
	}
	if n.WAddr != nil {
		f(&n.WAddr)
	}
	if n.WData != nil {
		f(&n.WData)
	}
	if n.WEn != nil {
		f(&n.WEn)
	}
}

// EachRef calls f with every node that n's expressions read, once per
// occurrence.
func (n *Node) EachRef(f func(*Node)) {
	n.EachExpr(func(slot **Expr) { (*slot).eachRef(f) })
}

// HasCode reports whether the node carries evaluation work during a cycle
// (everything except inputs).
func (n *Node) HasCode() bool {
	return n.Kind != KindInput && n.Kind != KindInvalid
}
