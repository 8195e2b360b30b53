// Code generated by rulegen from internal/emit/rules; DO NOT EDIT.
// Regenerate with: go generate ./internal/emit/...

package emit

// FuseRule identifies one fusion rule of the declarative table in
// internal/emit/rules. FuseRuleNone means no rule matches; NumFuseRules is
// the enumeration sentinel — diagnostics and the coverage tests sweep
// [FuseRuleNone+1, NumFuseRules).
type FuseRule uint8

const (
	FuseRuleNone FuseRule = iota
	// FuseRuleCopyMux: (copy _) >> (mux t? t? t?)
	FuseRuleCopyMux
	// FuseRuleCmpMux: (cmp _ _) >> (mux t _ _)
	FuseRuleCmpMux
	// FuseRuleMuxMux: (mux _ _ _) >> (mux _ t? t?)
	FuseRuleMuxMux
	// FuseRuleAluMux: (pure) >> (mux t? t? t?)
	FuseRuleAluMux
	// FuseRuleAddMask: (add _ _) >> (mask t)
	FuseRuleAddMask
	// FuseRuleSubMask: (sub _ _) >> (mask t)
	FuseRuleSubMask
	// FuseRuleAluMask: (pure) >> (mask t)
	FuseRuleAluMask
	// FuseRuleAluCat: (pure) >> (cat t? t?)
	FuseRuleAluCat
	// FuseRuleAluLogic: (pure) >> (logic t? t?)
	FuseRuleAluLogic
	// FuseRuleAndEqz: (and _ _) >> (eqz t? t?)
	FuseRuleAndEqz
	// FuseRuleAluEq: (pure) >> (eqz t? t?)
	FuseRuleAluEq
	// FuseRuleAndOrr: (and _ _) >> (orr t)
	FuseRuleAndOrr
	// FuseRuleAluMemread: (pure) >> (memread t)
	FuseRuleAluMemread
	// FuseRuleMuxMuxMux: (mux _ _ _) >> (mux _ t? t?) >> (mux _ t? t?)
	FuseRuleMuxMuxMux
	// FuseRuleCmpMuxMux: (cmp _ _) >> (mux t _ _) >> (mux _ t? t?)
	FuseRuleCmpMuxMux

	NumFuseRules
)

var fuseRuleNames = [NumFuseRules]string{
	"none",
	"copy-mux",
	"cmp-mux",
	"mux-mux",
	"alu-mux",
	"add-mask",
	"sub-mask",
	"alu-mask",
	"alu-cat",
	"alu-logic",
	"and-eqz",
	"alu-eq",
	"and-orr",
	"alu-memread",
	"mux-mux-mux",
	"cmp-mux-mux",
}

var fuseRulePatterns = [NumFuseRules]string{
	"",
	"(copy _) >> (mux t? t? t?)",
	"(cmp _ _) >> (mux t _ _)",
	"(mux _ _ _) >> (mux _ t? t?)",
	"(pure) >> (mux t? t? t?)",
	"(add _ _) >> (mask t)",
	"(sub _ _) >> (mask t)",
	"(pure) >> (mask t)",
	"(pure) >> (cat t? t?)",
	"(pure) >> (logic t? t?)",
	"(and _ _) >> (eqz t? t?)",
	"(pure) >> (eqz t? t?)",
	"(and _ _) >> (orr t)",
	"(pure) >> (memread t)",
	"(mux _ _ _) >> (mux _ t? t?) >> (mux _ t? t?)",
	"(cmp _ _) >> (mux t _ _) >> (mux _ t? t?)",
}

var fuseRuleArities = [NumFuseRules]uint8{
	0,
	2,
	2,
	2,
	2,
	2,
	2,
	2,
	2,
	2,
	2,
	2,
	2,
	2,
	3,
	3,
}

// String names the rule as declared in the rule table.
func (r FuseRule) String() string {
	if int(r) < len(fuseRuleNames) {
		return fuseRuleNames[r]
	}
	return "invalid"
}

// Pattern returns the rule's declared window pattern.
func (r FuseRule) Pattern() string {
	if int(r) < len(fuseRulePatterns) {
		return fuseRulePatterns[r]
	}
	return ""
}

// Arity returns the number of instructions the rule's window covers.
func (r FuseRule) Arity() int {
	if int(r) < len(fuseRuleArities) {
		return int(fuseRuleArities[r])
	}
	return 0
}

// matchFuse2 classifies an adjacent 2-instruction window (a executes
// first). Only fully narrow windows fuse; matching is purely structural —
// opcodes and destination-slot identity — so it is valid on any chain.
func matchFuse2(a, b Instr) FuseRule {
	if !narrow(a) || !narrow(b) {
		return FuseRuleNone
	}
	pure := pureNarrow(a)
	switch b.Op {
	case CMux:
		// copy-mux: (copy _) >> (mux t? t? t?)
		if a.Op == CCopy && (b.A == a.D || b.B == a.D || b.C == a.D) {
			return FuseRuleCopyMux
		}
		// cmp-mux: (cmp _ _) >> (mux t _ _)
		if isCmp(a.Op) && b.A == a.D {
			return FuseRuleCmpMux
		}
		// mux-mux: (mux _ _ _) >> (mux _ t? t?)
		if a.Op == CMux && (b.B == a.D || b.C == a.D) {
			return FuseRuleMuxMux
		}
		// alu-mux: (pure) >> (mux t? t? t?)
		if pure && (b.A == a.D || b.B == a.D || b.C == a.D) {
			return FuseRuleAluMux
		}
	case CCopy, CBits:
		// add-mask: (add _ _) >> (mask t)
		if a.Op == CAdd && b.A == a.D {
			return FuseRuleAddMask
		}
		// sub-mask: (sub _ _) >> (mask t)
		if a.Op == CSub && b.A == a.D {
			return FuseRuleSubMask
		}
		// alu-mask: (pure) >> (mask t)
		if pure && b.A == a.D {
			return FuseRuleAluMask
		}
	case CCat:
		// alu-cat: (pure) >> (cat t? t?)
		if pure && (b.A == a.D || b.B == a.D) {
			return FuseRuleAluCat
		}
	case CAnd, COr, CXor:
		// alu-logic: (pure) >> (logic t? t?)
		if pure && (b.A == a.D || b.B == a.D) {
			return FuseRuleAluLogic
		}
	case CEq, CNeq:
		// and-eqz: (and _ _) >> (eqz t? t?)
		if a.Op == CAnd && (b.A == a.D || b.B == a.D) {
			return FuseRuleAndEqz
		}
		// alu-eq: (pure) >> (eqz t? t?)
		if pure && (b.A == a.D || b.B == a.D) {
			return FuseRuleAluEq
		}
	case COrR:
		// and-orr: (and _ _) >> (orr t)
		if a.Op == CAnd && b.A == a.D {
			return FuseRuleAndOrr
		}
	case CMemRead:
		// alu-memread: (pure) >> (memread t)
		if pure && b.A == a.D {
			return FuseRuleAluMemread
		}
	}
	return FuseRuleNone
}

// compileFuse2 dispatches a matched 2-instruction window to its rule's
// bound-closure constructor.
func compileFuse2(p *Program, m *Machine, a, b Instr, r FuseRule) BoundFn {
	switch r {
	case FuseRuleCopyMux:
		return fuseCopyMux(p, m, a, b)
	case FuseRuleCmpMux:
		return fuseCmpMux(p, m, a, b)
	case FuseRuleMuxMux:
		return fuseMuxMux(p, m, a, b)
	case FuseRuleAluMux:
		return fuseAluMux(p, m, a, b)
	case FuseRuleAddMask:
		return fuseAddMask(p, m, a, b)
	case FuseRuleSubMask:
		return fuseSubMask(p, m, a, b)
	case FuseRuleAluMask:
		return fuseAluMask(p, m, a, b)
	case FuseRuleAluCat:
		return fuseAluCat(p, m, a, b)
	case FuseRuleAluLogic:
		return fuseAluLogic(p, m, a, b)
	case FuseRuleAndEqz:
		return fuseAndEqz(p, m, a, b)
	case FuseRuleAluEq:
		return fuseAluEq(p, m, a, b)
	case FuseRuleAndOrr:
		return fuseAndEqz(p, m, a, b)
	case FuseRuleAluMemread:
		return fuseAluMemRead(p, m, a, b)
	}
	panic("emit: compileFuse2: no constructor for rule " + r.String())
}

// matchFuse3 classifies an adjacent 3-instruction window (a executes
// first). Only fully narrow windows fuse; matching is purely structural —
// opcodes and destination-slot identity — so it is valid on any chain.
func matchFuse3(a, b, c Instr) FuseRule {
	if !narrow(a) || !narrow(b) || !narrow(c) {
		return FuseRuleNone
	}
	switch c.Op {
	case CMux:
		// mux-mux-mux: (mux _ _ _) >> (mux _ t? t?) >> (mux _ t? t?)
		if a.Op == CMux && b.Op == CMux && (b.B == a.D || b.C == a.D) && (c.B == b.D || c.C == b.D) {
			return FuseRuleMuxMuxMux
		}
		// cmp-mux-mux: (cmp _ _) >> (mux t _ _) >> (mux _ t? t?)
		if isCmp(a.Op) && b.Op == CMux && b.A == a.D && (c.B == b.D || c.C == b.D) {
			return FuseRuleCmpMuxMux
		}
	}
	return FuseRuleNone
}

// compileFuse3 dispatches a matched 3-instruction window to its rule's
// bound-closure constructor.
func compileFuse3(p *Program, m *Machine, a, b, c Instr, r FuseRule) BoundFn {
	switch r {
	case FuseRuleMuxMuxMux:
		return fuseMuxMuxMux(p, m, a, b, c)
	case FuseRuleCmpMuxMux:
		return fuseCmpMuxMux(p, m, a, b, c)
	}
	panic("emit: compileFuse3: no constructor for rule " + r.String())
}
