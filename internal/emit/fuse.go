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
// The production matchers (matchFuse2, matchFuse3 in fuse_gen.go) and the
// FuseRule enumeration are generated by cmd/rulegen from the declarative
// rule table in internal/emit/rules. This file keeps the shared structural
// predicates and the retired hand-written matcher, which survives unexported
// as the reference implementation for the generated matcher's equivalence
// test.

// isCmp reports whether op is one of the ten comparisons (0/1 result).
func isCmp(op OpCode) bool { return op >= CEq && op <= CSGeq }

// narrow reports whether every width of the instruction fits one word.
func narrow(in Instr) bool { return in.DW <= 64 && in.AW <= 64 && in.BW <= 64 }

// pureNarrow reports whether the instruction is a pure narrow value producer
// — compilable by narrowValueBound into a pre-bound value closure.
// Everything except the memory read (which needs the machine's memory
// arrays).
func pureNarrow(in Instr) bool { return narrow(in) && in.Op >= CCopy && in.Op < CMemRead }

// legacyPattern identifies one fusible two-instruction idiom of the retired
// hand-written matcher. Kept only so the equivalence test can enumerate
// matchFusionLegacy against the generated matchFuse2.
type legacyPattern uint8

const (
	legNone legacyPattern = iota
	legCopyMux
	legCmpMux
	legAddMask
	legSubMask
	legAndEqz
	legMuxMux
	legAluMask
	legAluMux
	legAluCat
	legAluLogic
	legAluEq
	legAluMemRead

	legNumPatterns
)

// matchFusionLegacy is the retired hand-written pair matcher, preserved as
// the reference implementation: the equivalence test exhaustively checks
// that the generated matchFuse2 reproduces its verdicts. Production code
// must call matchFuse2/matchFuse3 instead.
func matchFusionLegacy(a, b Instr) legacyPattern {
	if !narrow(a) || !narrow(b) {
		return legNone
	}
	pure := pureNarrow(a)
	switch b.Op {
	case CMux:
		feedsArm := b.B == a.D || b.C == a.D
		feeds := b.A == a.D || feedsArm
		switch {
		case a.Op == CCopy && feeds:
			return legCopyMux
		case isCmp(a.Op) && b.A == a.D:
			return legCmpMux
		case a.Op == CMux && feedsArm:
			return legMuxMux
		case pure && feeds:
			return legAluMux
		}
	case CCopy, CBits:
		if b.A != a.D {
			return legNone
		}
		switch {
		case a.Op == CAdd:
			return legAddMask
		case a.Op == CSub:
			return legSubMask
		case pure:
			return legAluMask
		}
	case CCat:
		if pure && (b.A == a.D || b.B == a.D) {
			return legAluCat
		}
	case CAnd, COr, CXor:
		// b.Op == CAnd also terminates an a == CAnd chain; the generic
		// family handles it like any other producer.
		if pure && (b.A == a.D || b.B == a.D) {
			return legAluLogic
		}
	case CEq, CNeq:
		if a.Op == CAnd && (b.A == a.D || b.B == a.D) {
			return legAndEqz
		}
		if pure && (b.A == a.D || b.B == a.D) {
			return legAluEq
		}
	case COrR:
		if a.Op == CAnd && b.A == a.D {
			return legAndEqz
		}
	case CMemRead:
		if pure && b.A == a.D {
			return legAluMemRead
		}
	}
	return legNone
}

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

// FusionStats counts, per generated rule, how many windows of the chain
// would fuse — the diagnostic behind cmd/gsim-diag's fusion report. The
// slice is indexed by FuseRule ([FuseRuleNone+1, NumFuseRules)) and the walk
// mirrors CompileChainBound's greedy triple-then-pair scan exactly, so the
// counts are the closures the chain actually compiles to.
func FusionStats(ins []Instr) []int {
	counts := make([]int, NumFuseRules)
	for i := 0; i < len(ins); i++ {
		if i+2 < len(ins) {
			if r := matchFuse3(ins[i], ins[i+1], ins[i+2]); r != FuseRuleNone {
				counts[r]++
				i += 2
				continue
			}
		}
		if i+1 < len(ins) {
			if r := matchFuse2(ins[i], ins[i+1]); r != FuseRuleNone {
				counts[r]++
				i++
			}
		}
	}
	return counts
}
