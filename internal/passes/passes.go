// Package passes implements GSIM's node-level and bit-level graph
// optimizations (paper §III-B, §III-C):
//
//   - Simplify: constant propagation and expression simplification,
//     including the one-hot pattern bits(dshl(1,a),k,k) → eq(a,k);
//   - Redundant: alias-, dead-, and shorted-node elimination plus
//     unused-register elimination via reachability from outputs;
//   - Inline / Extract: the inline-versus-extraction trade-off decided by
//     the paper's cost model cost(f)·#refs ≷ cost(f) + cost_node;
//   - ResetOpt: hoisting reset muxes out of register next-value expressions
//     so engines check one reset signal per cycle instead of one per
//     register (Listing 5 → Listing 6);
//   - BitSplit: bit-level node splitting along per-bit dataflow (Fig. 4).
//
// All passes preserve cycle-accurate semantics; the test suite verifies
// optimized and unoptimized graphs produce identical trajectories.
package passes

import (
	"fmt"
	"strings"
	"time"

	"gsim/internal/ir"
)

// Options selects which optimizations to run. The zero value runs nothing.
type Options struct {
	Simplify  bool
	Redundant bool
	Inline    bool
	Extract   bool
	ResetOpt  bool
	BitSplit  bool

	// NoAlgebraic disables the generated algebraic rule set (rewriteAlgebraic,
	// from the table in internal/emit/rules) while keeping constant folding
	// and the structural rewrites. The zero value ships the rules enabled;
	// the fuzz harness flips this to diff simplified against unsimplified
	// builds.
	NoAlgebraic bool
}

// The cost-model constants.
const (
	// DefaultCostNode is the paper's cost_node constant: the abstract
	// overhead of introducing one extra node (activation bookkeeping +
	// scheduling).
	DefaultCostNode = 2
	// DefaultMaxInlineCost caps the size of expressions that may be
	// duplicated by inlining.
	DefaultMaxInlineCost = 48
	// DefaultMaxSplitParts caps how many pieces one node may be split into
	// at the bit level.
	DefaultMaxSplitParts = 8
)

// All returns Options with every optimization enabled.
func All() Options {
	return Options{
		Simplify: true, Redundant: true, Inline: true,
		Extract: true, ResetOpt: true, BitSplit: true,
	}
}

// Basic returns the light pipeline used for the Verilator-like baseline:
// expression simplification and redundant-node elimination only.
func Basic() Options {
	return Options{Simplify: true, Redundant: true}
}

// Pass names one stage of Run, for the per-stage wall times in Result.
// Simplify, Alias and Dead can run more than once; their times accumulate.
type Pass uint8

const (
	PassSimplify Pass = iota
	PassAlias
	PassDead
	PassBitSplit
	PassInline
	PassExtract
	PassResetOpt
	NumPasses
)

var passNames = [NumPasses]string{"simplify", "alias", "dead", "bitsplit", "inline", "extract", "resets"}

// Result reports what each pass did and how long it took.
type Result struct {
	Simplified    int // expressions rewritten
	AliasRemoved  int
	DeadRemoved   int // dead nodes + unused registers removed
	Inlined       int
	Extracted     int
	ResetsHoisted int
	NodesSplit    int

	Times [NumPasses]time.Duration // wall time per stage, indexed by Pass
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("simplified=%d alias=%d dead=%d inlined=%d extracted=%d resets=%d split=%d",
		r.Simplified, r.AliasRemoved, r.DeadRemoved, r.Inlined, r.Extracted, r.ResetsHoisted, r.NodesSplit)
}

// Timing renders the stages that ran with their wall times, in run order.
func (r Result) Timing() string {
	var sb strings.Builder
	for p, d := range r.Times {
		if d > 0 {
			fmt.Fprintf(&sb, " %s=%v", passNames[p], d.Round(time.Microsecond))
		}
	}
	return strings.TrimPrefix(sb.String(), " ")
}

// Run applies the selected passes in dependency order and compacts the
// graph. The graph is mutated in place.
//
// Every live node keeps ID == its index in g.Nodes for the whole of Run
// (passes delete by nil-ing the slot and add with AddNode; Compact runs
// last), so the passes keep their per-node books in slices indexed by ID.
// No expression may be reachable from two places in g (ir.Graph.Clone and
// firrtl.Load never alias one): inlining and extraction move trees rather
// than copy them, and bookkeeping by position would miss an aliased rewrite.
func Run(g *ir.Graph, opts Options) Result {
	var res Result
	var marks []bool // eliminateDead's mark buffer, shared by its runs
	run := func(p Pass, on bool, count *int, pass func() int) {
		if on {
			start := time.Now()
			*count += pass()
			res.Times[p] += time.Since(start)
		}
	}
	dead := func() int { return eliminateDead(g, &marks) }
	cleanup := func() {
		run(PassSimplify, opts.Simplify, &res.Simplified, func() int { return simplifyGraph(g, !opts.NoAlgebraic) })
		run(PassAlias, opts.Redundant, &res.AliasRemoved, func() int { return eliminateAliases(g) })
		run(PassDead, opts.Redundant, &res.DeadRemoved, dead)
	}
	cleanup()
	run(PassBitSplit, opts.BitSplit, &res.NodesSplit, func() int { return bitSplit(g) })
	if res.NodesSplit > 0 {
		cleanup()
	}
	run(PassInline, opts.Inline, &res.Inlined, func() int { return inlineNodes(g) })
	run(PassExtract, opts.Extract, &res.Extracted, func() int {
		extracted, dissolved := extractCommon(g)
		res.Inlined += dissolved
		return extracted
	})
	run(PassResetOpt, opts.ResetOpt, &res.ResetsHoisted, func() int { return hoistResets(g) })
	run(PassDead, opts.Redundant, &res.DeadRemoved, dead)
	g.Compact()
	return res
}

// fit pads or slices e to exactly width bits, preserving value semantics
// (zero extension / truncation).
func fit(e *ir.Expr, width int) *ir.Expr {
	switch {
	case e.Width == width:
		return e
	case e.Width < width:
		return &ir.Expr{Op: ir.OpPad, Args: []*ir.Expr{e}, Width: width}
	default:
		return ir.BitsOf(e, width-1, 0)
	}
}
