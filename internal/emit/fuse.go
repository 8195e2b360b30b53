package emit

// Superinstruction fusion: a peephole pass over an instruction chain that
// collapses common two- and three-instruction patterns into single pre-bound
// closures. The per-instruction indirect call is the dominant cost of the
// closure-threaded kernels on narrow designs (GSIM's emitted C++ pays no
// such dispatch; Manticore and Parendi both report instruction-granularity
// overhead dominating BSP-style RTL simulation), so cutting the call count
// on the hottest idioms is a direct win.
//
// A fused closure performs exactly the stores of its source instructions
// in their original order — every intermediate result is still written to
// its state slot. That makes fusion trivially bit-identical to sequential
// execution (the lockstep and fuzz suites pin this): the only thing removed
// is dispatch, plus the intermediate value is forwarded through a register
// where the match proves the slot identity.
//
// Fusion is applied at kernel-chain build time (Program.CompileChainBound),
// never to the instruction stream itself, so Instrs, Code ranges, and
// instruction counting are untouched: a fused superinstruction still retires
// every instruction it covers.
//
// The production matchers (matchFuse2, matchFuse3 in fuse_gen.go), the
// FuseRule enumeration and the generic rules' constructors are generated by
// cmd/rulegen from the declarative tables in internal/emit/rules. This file
// keeps the shared structural predicates and the fusion walk.

// isCmp reports whether op is one of the ten comparisons (0/1 result).
func isCmp(op OpCode) bool { return op >= CEq && op <= CSGeq }

// narrow reports whether every width of the instruction fits one word.
func narrow(in Instr) bool { return in.DW <= 64 && in.AW <= 64 && in.BW <= 64 }

// cmpKind classifies the three comparison kernels the ten comparison opcodes
// reduce to.
type cmpKind uint8

const (
	cmpEqK cmpKind = iota // x == y
	cmpLtU                // x < y, unsigned
	cmpLtS                // x < y, signed
)

// cmpParts normalizes a comparison instruction: the ten opcodes reduce to
// three kernels plus an operand swap and a result negation, resolved at
// compile time: a<=b == !(b<a), a>b == b<a, a>=b == !(a<b), a!=b == !(a==b).
func cmpParts(a Instr) (x, y int, xw, yw int32, negBit uint64, kind cmpKind) {
	x, y = int(a.A), int(a.B)
	xw, yw = a.AW, a.BW
	var neg bool
	switch a.Op {
	case CEq:
		kind = cmpEqK
	case CNeq:
		kind, neg = cmpEqK, true
	case CLt:
		kind = cmpLtU
	case CLeq:
		x, y, xw, yw = y, x, yw, xw
		kind, neg = cmpLtU, true
	case CGt:
		x, y, xw, yw = y, x, yw, xw
		kind = cmpLtU
	case CGeq:
		kind, neg = cmpLtU, true
	case CSLt:
		kind = cmpLtS
	case CSLeq:
		x, y, xw, yw = y, x, yw, xw
		kind, neg = cmpLtS, true
	case CSGt:
		x, y, xw, yw = y, x, yw, xw
		kind = cmpLtS
	case CSGeq:
		kind, neg = cmpLtS, true
	}
	return x, y, xw, yw, b2u(neg), kind
}

// fusionWalk is the greedy scan CompileChainBound compiles a chain with:
// at each position the widest matching window wins (a triple beats the pair
// it contains). It calls f once per closure the chain compiles to, with the
// window's first index and its rule — FuseRuleNone for a lone instruction.
func fusionWalk(ins []Instr, f func(i int, r FuseRule)) {
	for i := 0; i < len(ins); i++ {
		r := FuseRuleNone
		if i+2 < len(ins) {
			r = matchFuse3(ins[i], ins[i+1], ins[i+2])
		}
		if r == FuseRuleNone && i+1 < len(ins) {
			r = matchFuse2(ins[i], ins[i+1])
		}
		f(i, r)
		i += max(r.Arity()-1, 0)
	}
}

// FusionStats counts, per generated rule, how many windows of the chain
// fuse — the diagnostic behind cmd/gsim-diag's fusion report. The slice is
// indexed by FuseRule ([FuseRuleNone+1, NumFuseRules)); the walk is
// CompileChainBound's, so the counts are the closures the chain compiles to.
func FusionStats(ins []Instr) []int {
	counts := make([]int, NumFuseRules)
	fusionWalk(ins, func(_ int, r FuseRule) {
		if r != FuseRuleNone {
			counts[r]++
		}
	})
	return counts
}

// FusionProducers breaks FusionStats down by producer: counts[rule][op] is
// the number of the rule's windows whose first instruction has opcode op.
// gsim-diag reads the generic rules' rows to choose the value table's
// inline producers.
func FusionProducers(ins []Instr) [][]int {
	counts := make([][]int, NumFuseRules)
	for r := range counts {
		counts[r] = make([]int, cOpCount)
	}
	fusionWalk(ins, func(i int, r FuseRule) {
		if r != FuseRuleNone {
			counts[r][ins[i].Op]++
		}
	})
	return counts
}
