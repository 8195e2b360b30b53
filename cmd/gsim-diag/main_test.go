package main

import (
	"testing"

	"gsim/internal/ir"
)

// TestRefCountSummary pins the node-level line on a graph whose counts are
// known: one output nobody reads, one node per reference count 1, 2 and 3,
// the last of them an extracted one; registers and inputs are not counted.
func TestRefCountSummary(t *testing.T) {
	b := ir.NewBuilder("refs")
	a := b.Input("a", 8)
	one := b.Comb("one", b.Not(b.R(a)))
	two := b.Comb("two", b.Not(b.R(one)))
	three := b.Comb("_cse0", b.Xor(b.R(two), b.R(two)))
	r := b.Reg("r", 8)
	b.SetNext(r, b.And(b.R(three), b.R(three)))
	b.Output("o", b.Or(b.R(three), b.R(r)))
	want := "comb=4 by refs: 0=1 1=1 2=1 3+=1  cse=1 (25.0% of comb)"
	if got := refCountSummary(b.G); got != want {
		t.Fatalf("refCountSummary:\n got %s\nwant %s", got, want)
	}
}
