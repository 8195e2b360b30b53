// Code generated by rulegen from internal/emit/rules; DO NOT EDIT.
// Regenerate with: go generate ./internal/emit/...

package emit

import (
	"math/bits"
	"unsafe"
)

// FuseRule identifies one fusion rule of the declarative table in
// internal/emit/rules. FuseRuleNone means no rule matches; NumFuseRules is
// the enumeration sentinel — diagnostics and the coverage tests sweep
// [FuseRuleNone+1, NumFuseRules).
type FuseRule uint8

const (
	FuseRuleNone FuseRule = iota
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
	// FuseRuleAluEq: (pure) >> (eqz t? t?)
	FuseRuleAluEq
	// FuseRuleAluMemread: (pure) >> (memread t)
	FuseRuleAluMemread
	// FuseRuleMuxMuxMux: (mux _ _ _) >> (mux _ t? t?) >> (mux _ t? t?)
	FuseRuleMuxMuxMux
	// FuseRuleBitsAndMux: (bits _) >> (and t? t?) >> (mux t? t? t?)
	FuseRuleBitsAndMux

	NumFuseRules
)

var fuseRuleNames = [NumFuseRules]string{
	"none",
	"cmp-mux",
	"mux-mux",
	"alu-mux",
	"add-mask",
	"sub-mask",
	"alu-mask",
	"alu-cat",
	"alu-logic",
	"alu-eq",
	"alu-memread",
	"mux-mux-mux",
	"bits-and-mux",
}

var fuseRulePatterns = [NumFuseRules]string{
	"",
	"(cmp _ _) >> (mux t _ _)",
	"(mux _ _ _) >> (mux _ t? t?)",
	"(pure) >> (mux t? t? t?)",
	"(add _ _) >> (mask t)",
	"(sub _ _) >> (mask t)",
	"(pure) >> (mask t)",
	"(pure) >> (cat t? t?)",
	"(pure) >> (logic t? t?)",
	"(pure) >> (eqz t? t?)",
	"(pure) >> (memread t)",
	"(mux _ _ _) >> (mux _ t? t?) >> (mux _ t? t?)",
	"(bits _) >> (and t? t?) >> (mux t? t? t?)",
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

var opcodeNames = [cOpCount]string{
	CCopy:    "copy",
	CAdd:     "add",
	CSub:     "sub",
	CMul:     "mul",
	CDiv:     "div",
	CRem:     "rem",
	CNeg:     "neg",
	CAnd:     "and",
	COr:      "or",
	CXor:     "xor",
	CNot:     "not",
	CAndR:    "andr",
	COrR:     "orr",
	CXorR:    "xorr",
	CEq:      "eq",
	CNeq:     "neq",
	CLt:      "lt",
	CLeq:     "leq",
	CGt:      "gt",
	CGeq:     "geq",
	CSLt:     "slt",
	CSLeq:    "sleq",
	CSGt:     "sgt",
	CSGeq:    "sgeq",
	CShl:     "shl",
	CShr:     "shr",
	CDshl:    "dshl",
	CDshr:    "dshr",
	CCat:     "cat",
	CBits:    "bits",
	CSExt:    "sext",
	CMux:     "mux",
	CMemRead: "memread",
}

// String names the opcode as the rule tables spell it.
func (op OpCode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return "invalid"
}

// matchFuse2 classifies an adjacent 2-instruction window (a executes
// first). Only fully narrow windows fuse; matching is purely structural —
// opcodes and destination-slot identity — so it is valid on any chain.
func matchFuse2(a, b Instr) FuseRule {
	if !narrow(a) || !narrow(b) {
		return FuseRuleNone
	}
	pure := InlineProducer(a.Op)
	switch b.Op {
	case CMux:
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
		// alu-eq: (pure) >> (eqz t? t?)
		if pure && (b.A == a.D || b.B == a.D) {
			return FuseRuleAluEq
		}
	case CMemRead:
		// alu-memread: (pure) >> (memread t)
		if pure && b.A == a.D {
			return FuseRuleAluMemread
		}
	}
	return FuseRuleNone
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
		// bits-and-mux: (bits _) >> (and t? t?) >> (mux t? t? t?)
		if a.Op == CBits && b.Op == CAnd && (b.A == a.D || b.B == a.D) && (c.A == b.D || c.B == b.D || c.C == b.D) {
			return FuseRuleBitsAndMux
		}
	}
	return FuseRuleNone
}

// InlineProducer reports whether op's value row is marked Inline: the pure
// producer class of the generic fusion rules.
func InlineProducer(op OpCode) bool {
	switch op {
	case CMul, COr, CXor, CNot, COrR, CLt, CShr, CDshl, CCat, CBits, CMux:
		return true
	}
	return false
}

// Kernels. Each runs the operand records of one window against the state
// image at st: it stores every instruction's value row in window order and
// returns the record after the window. A fused window stores its leading
// instructions, then tail-calls its last instruction's single kernel, which
// the Go compiler inlines; that instruction re-reads any fed operand from
// the state image after the store.

func kCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = *at(st, a.A) & mask8(a.DW)
	return a.next()
}

func kAdd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) + *at(st, a.B)) & mask8(a.DW)
	return a.next()
}

func kSub(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) - *at(st, a.B)) & mask8(a.DW)
	return a.next()
}

func kMul(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) * *at(st, a.B)) & mask8(a.DW)
	return a.next()
}

func kDiv(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = divz(*at(st, a.A), *at(st, a.B)) & mask8(a.DW)
	return a.next()
}

func kRem(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = remz(*at(st, a.A), *at(st, a.B)) & mask8(a.DW)
	return a.next()
}

func kNeg(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = -*at(st, a.A) & mask8(a.DW)
	return a.next()
}

func kAnd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = *at(st, a.A) & *at(st, a.B) & mask8(a.DW)
	return a.next()
}

func kOr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) | *at(st, a.B)) & mask8(a.DW)
	return a.next()
}

func kXor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) ^ *at(st, a.B)) & mask8(a.DW)
	return a.next()
}

func kNot(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = ^*at(st, a.A) & mask8(a.DW)
	return a.next()
}

func kAndr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) == mask8(a.AW))
	return a.next()
}

func kOrr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != 0)
	return a.next()
}

func kXorr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = uint64(bits.OnesCount64(*at(st, a.A))) & 1
	return a.next()
}

func kEq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) == *at(st, a.B))
	return a.next()
}

func kNeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != *at(st, a.B))
	return a.next()
}

func kLt(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) < *at(st, a.B))
	return a.next()
}

func kLeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) <= *at(st, a.B))
	return a.next()
}

func kGt(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) > *at(st, a.B))
	return a.next()
}

func kGeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) >= *at(st, a.B))
	return a.next()
}

func kSlt(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(sext64(*at(st, a.A), int32(a.AW)) < sext64(*at(st, a.B), int32(a.BW)))
	return a.next()
}

func kSleq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(sext64(*at(st, a.A), int32(a.AW)) <= sext64(*at(st, a.B), int32(a.BW)))
	return a.next()
}

func kSgt(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(sext64(*at(st, a.A), int32(a.AW)) > sext64(*at(st, a.B), int32(a.BW)))
	return a.next()
}

func kSgeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(sext64(*at(st, a.A), int32(a.AW)) >= sext64(*at(st, a.B), int32(a.BW)))
	return a.next()
}

func kShl(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) << a.Sh) & mask8(a.DW)
	return a.next()
}

func kShr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return a.next()
}

func kDshl(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) << *at(st, a.B)) & mask8(a.DW)
	return a.next()
}

func kDshr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> *at(st, a.B)) & mask8(a.DW)
	return a.next()
}

func kCat(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A)<<a.BW | *at(st, a.B)) & mask8(a.DW)
	return a.next()
}

func kBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return a.next()
}

func kSext(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = uint64(sext64(*at(st, a.A), int32(a.AW))) & mask8(a.DW)
	return a.next()
}

func kMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = pick(*at(st, a.A), *at(st, a.B), *at(st, a.C)) & mask8(a.DW)
	return a.next()
}

func kEqMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) == *at(st, a.B))
	return kMux(st, m, a.next())
}

func kNeqMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != *at(st, a.B))
	return kMux(st, m, a.next())
}

func kLtMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) < *at(st, a.B))
	return kMux(st, m, a.next())
}

func kLeqMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) <= *at(st, a.B))
	return kMux(st, m, a.next())
}

func kGtMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) > *at(st, a.B))
	return kMux(st, m, a.next())
}

func kGeqMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) >= *at(st, a.B))
	return kMux(st, m, a.next())
}

func kSltMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(sext64(*at(st, a.A), int32(a.AW)) < sext64(*at(st, a.B), int32(a.BW)))
	return kMux(st, m, a.next())
}

func kSleqMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(sext64(*at(st, a.A), int32(a.AW)) <= sext64(*at(st, a.B), int32(a.BW)))
	return kMux(st, m, a.next())
}

func kSgtMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(sext64(*at(st, a.A), int32(a.AW)) > sext64(*at(st, a.B), int32(a.BW)))
	return kMux(st, m, a.next())
}

func kSgeqMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(sext64(*at(st, a.A), int32(a.AW)) >= sext64(*at(st, a.B), int32(a.BW)))
	return kMux(st, m, a.next())
}

func kMuxMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = pick(*at(st, a.A), *at(st, a.B), *at(st, a.C)) & mask8(a.DW)
	return kMux(st, m, a.next())
}

func kMulMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) * *at(st, a.B)) & mask8(a.DW)
	return kMux(st, m, a.next())
}

func kOrMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) | *at(st, a.B)) & mask8(a.DW)
	return kMux(st, m, a.next())
}

func kXorMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) ^ *at(st, a.B)) & mask8(a.DW)
	return kMux(st, m, a.next())
}

func kNotMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = ^*at(st, a.A) & mask8(a.DW)
	return kMux(st, m, a.next())
}

func kOrrMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != 0)
	return kMux(st, m, a.next())
}

func kShrMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kMux(st, m, a.next())
}

func kDshlMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) << *at(st, a.B)) & mask8(a.DW)
	return kMux(st, m, a.next())
}

func kCatMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A)<<a.BW | *at(st, a.B)) & mask8(a.DW)
	return kMux(st, m, a.next())
}

func kBitsMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kMux(st, m, a.next())
}

func kAddCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) + *at(st, a.B)) & mask8(a.DW)
	return kCopy(st, m, a.next())
}

func kAddBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) + *at(st, a.B)) & mask8(a.DW)
	return kBits(st, m, a.next())
}

func kSubCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) - *at(st, a.B)) & mask8(a.DW)
	return kCopy(st, m, a.next())
}

func kSubBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) - *at(st, a.B)) & mask8(a.DW)
	return kBits(st, m, a.next())
}

func kMulCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) * *at(st, a.B)) & mask8(a.DW)
	return kCopy(st, m, a.next())
}

func kMulBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) * *at(st, a.B)) & mask8(a.DW)
	return kBits(st, m, a.next())
}

func kOrCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) | *at(st, a.B)) & mask8(a.DW)
	return kCopy(st, m, a.next())
}

func kOrBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) | *at(st, a.B)) & mask8(a.DW)
	return kBits(st, m, a.next())
}

func kXorCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) ^ *at(st, a.B)) & mask8(a.DW)
	return kCopy(st, m, a.next())
}

func kXorBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) ^ *at(st, a.B)) & mask8(a.DW)
	return kBits(st, m, a.next())
}

func kNotCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = ^*at(st, a.A) & mask8(a.DW)
	return kCopy(st, m, a.next())
}

func kNotBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = ^*at(st, a.A) & mask8(a.DW)
	return kBits(st, m, a.next())
}

func kOrrCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != 0)
	return kCopy(st, m, a.next())
}

func kOrrBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != 0)
	return kBits(st, m, a.next())
}

func kLtCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) < *at(st, a.B))
	return kCopy(st, m, a.next())
}

func kLtBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) < *at(st, a.B))
	return kBits(st, m, a.next())
}

func kShrCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kCopy(st, m, a.next())
}

func kShrBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kBits(st, m, a.next())
}

func kDshlCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) << *at(st, a.B)) & mask8(a.DW)
	return kCopy(st, m, a.next())
}

func kDshlBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) << *at(st, a.B)) & mask8(a.DW)
	return kBits(st, m, a.next())
}

func kCatCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A)<<a.BW | *at(st, a.B)) & mask8(a.DW)
	return kCopy(st, m, a.next())
}

func kCatBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A)<<a.BW | *at(st, a.B)) & mask8(a.DW)
	return kBits(st, m, a.next())
}

func kBitsCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kCopy(st, m, a.next())
}

func kBitsBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kBits(st, m, a.next())
}

func kMuxCopy(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = pick(*at(st, a.A), *at(st, a.B), *at(st, a.C)) & mask8(a.DW)
	return kCopy(st, m, a.next())
}

func kMuxBits(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = pick(*at(st, a.A), *at(st, a.B), *at(st, a.C)) & mask8(a.DW)
	return kBits(st, m, a.next())
}

func kMulCat(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) * *at(st, a.B)) & mask8(a.DW)
	return kCat(st, m, a.next())
}

func kOrCat(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) | *at(st, a.B)) & mask8(a.DW)
	return kCat(st, m, a.next())
}

func kXorCat(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) ^ *at(st, a.B)) & mask8(a.DW)
	return kCat(st, m, a.next())
}

func kNotCat(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = ^*at(st, a.A) & mask8(a.DW)
	return kCat(st, m, a.next())
}

func kOrrCat(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != 0)
	return kCat(st, m, a.next())
}

func kLtCat(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) < *at(st, a.B))
	return kCat(st, m, a.next())
}

func kShrCat(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kCat(st, m, a.next())
}

func kDshlCat(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) << *at(st, a.B)) & mask8(a.DW)
	return kCat(st, m, a.next())
}

func kCatCat(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A)<<a.BW | *at(st, a.B)) & mask8(a.DW)
	return kCat(st, m, a.next())
}

func kBitsCat(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kCat(st, m, a.next())
}

func kMuxCat(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = pick(*at(st, a.A), *at(st, a.B), *at(st, a.C)) & mask8(a.DW)
	return kCat(st, m, a.next())
}

func kMulAnd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) * *at(st, a.B)) & mask8(a.DW)
	return kAnd(st, m, a.next())
}

func kMulOr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) * *at(st, a.B)) & mask8(a.DW)
	return kOr(st, m, a.next())
}

func kMulXor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) * *at(st, a.B)) & mask8(a.DW)
	return kXor(st, m, a.next())
}

func kOrAnd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) | *at(st, a.B)) & mask8(a.DW)
	return kAnd(st, m, a.next())
}

func kOrOr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) | *at(st, a.B)) & mask8(a.DW)
	return kOr(st, m, a.next())
}

func kOrXor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) | *at(st, a.B)) & mask8(a.DW)
	return kXor(st, m, a.next())
}

func kXorAnd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) ^ *at(st, a.B)) & mask8(a.DW)
	return kAnd(st, m, a.next())
}

func kXorOr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) ^ *at(st, a.B)) & mask8(a.DW)
	return kOr(st, m, a.next())
}

func kXorXor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) ^ *at(st, a.B)) & mask8(a.DW)
	return kXor(st, m, a.next())
}

func kNotAnd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = ^*at(st, a.A) & mask8(a.DW)
	return kAnd(st, m, a.next())
}

func kNotOr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = ^*at(st, a.A) & mask8(a.DW)
	return kOr(st, m, a.next())
}

func kNotXor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = ^*at(st, a.A) & mask8(a.DW)
	return kXor(st, m, a.next())
}

func kOrrAnd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != 0)
	return kAnd(st, m, a.next())
}

func kOrrOr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != 0)
	return kOr(st, m, a.next())
}

func kOrrXor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != 0)
	return kXor(st, m, a.next())
}

func kLtAnd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) < *at(st, a.B))
	return kAnd(st, m, a.next())
}

func kLtOr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) < *at(st, a.B))
	return kOr(st, m, a.next())
}

func kLtXor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) < *at(st, a.B))
	return kXor(st, m, a.next())
}

func kShrAnd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kAnd(st, m, a.next())
}

func kShrOr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kOr(st, m, a.next())
}

func kShrXor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kXor(st, m, a.next())
}

func kDshlAnd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) << *at(st, a.B)) & mask8(a.DW)
	return kAnd(st, m, a.next())
}

func kDshlOr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) << *at(st, a.B)) & mask8(a.DW)
	return kOr(st, m, a.next())
}

func kDshlXor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) << *at(st, a.B)) & mask8(a.DW)
	return kXor(st, m, a.next())
}

func kCatAnd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A)<<a.BW | *at(st, a.B)) & mask8(a.DW)
	return kAnd(st, m, a.next())
}

func kCatOr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A)<<a.BW | *at(st, a.B)) & mask8(a.DW)
	return kOr(st, m, a.next())
}

func kCatXor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A)<<a.BW | *at(st, a.B)) & mask8(a.DW)
	return kXor(st, m, a.next())
}

func kBitsAnd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kAnd(st, m, a.next())
}

func kBitsOr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kOr(st, m, a.next())
}

func kBitsXor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kXor(st, m, a.next())
}

func kMuxAnd(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = pick(*at(st, a.A), *at(st, a.B), *at(st, a.C)) & mask8(a.DW)
	return kAnd(st, m, a.next())
}

func kMuxOr(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = pick(*at(st, a.A), *at(st, a.B), *at(st, a.C)) & mask8(a.DW)
	return kOr(st, m, a.next())
}

func kMuxXor(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = pick(*at(st, a.A), *at(st, a.B), *at(st, a.C)) & mask8(a.DW)
	return kXor(st, m, a.next())
}

func kMulEq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) * *at(st, a.B)) & mask8(a.DW)
	return kEq(st, m, a.next())
}

func kMulNeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) * *at(st, a.B)) & mask8(a.DW)
	return kNeq(st, m, a.next())
}

func kOrEq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) | *at(st, a.B)) & mask8(a.DW)
	return kEq(st, m, a.next())
}

func kOrNeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) | *at(st, a.B)) & mask8(a.DW)
	return kNeq(st, m, a.next())
}

func kXorEq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) ^ *at(st, a.B)) & mask8(a.DW)
	return kEq(st, m, a.next())
}

func kXorNeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) ^ *at(st, a.B)) & mask8(a.DW)
	return kNeq(st, m, a.next())
}

func kNotEq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = ^*at(st, a.A) & mask8(a.DW)
	return kEq(st, m, a.next())
}

func kNotNeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = ^*at(st, a.A) & mask8(a.DW)
	return kNeq(st, m, a.next())
}

func kOrrEq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != 0)
	return kEq(st, m, a.next())
}

func kOrrNeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != 0)
	return kNeq(st, m, a.next())
}

func kLtEq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) < *at(st, a.B))
	return kEq(st, m, a.next())
}

func kLtNeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) < *at(st, a.B))
	return kNeq(st, m, a.next())
}

func kShrEq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kEq(st, m, a.next())
}

func kShrNeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kNeq(st, m, a.next())
}

func kDshlEq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) << *at(st, a.B)) & mask8(a.DW)
	return kEq(st, m, a.next())
}

func kDshlNeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) << *at(st, a.B)) & mask8(a.DW)
	return kNeq(st, m, a.next())
}

func kCatEq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A)<<a.BW | *at(st, a.B)) & mask8(a.DW)
	return kEq(st, m, a.next())
}

func kCatNeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A)<<a.BW | *at(st, a.B)) & mask8(a.DW)
	return kNeq(st, m, a.next())
}

func kBitsEq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kEq(st, m, a.next())
}

func kBitsNeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kNeq(st, m, a.next())
}

func kMuxEq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = pick(*at(st, a.A), *at(st, a.B), *at(st, a.C)) & mask8(a.DW)
	return kEq(st, m, a.next())
}

func kMuxNeq(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = pick(*at(st, a.A), *at(st, a.B), *at(st, a.C)) & mask8(a.DW)
	return kNeq(st, m, a.next())
}

func kMulMemread(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) * *at(st, a.B)) & mask8(a.DW)
	return kMemread(st, m, a.next())
}

func kOrMemread(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) | *at(st, a.B)) & mask8(a.DW)
	return kMemread(st, m, a.next())
}

func kXorMemread(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) ^ *at(st, a.B)) & mask8(a.DW)
	return kMemread(st, m, a.next())
}

func kNotMemread(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = ^*at(st, a.A) & mask8(a.DW)
	return kMemread(st, m, a.next())
}

func kOrrMemread(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) != 0)
	return kMemread(st, m, a.next())
}

func kLtMemread(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = b2u(*at(st, a.A) < *at(st, a.B))
	return kMemread(st, m, a.next())
}

func kShrMemread(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kMemread(st, m, a.next())
}

func kDshlMemread(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) << *at(st, a.B)) & mask8(a.DW)
	return kMemread(st, m, a.next())
}

func kCatMemread(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A)<<a.BW | *at(st, a.B)) & mask8(a.DW)
	return kMemread(st, m, a.next())
}

func kBitsMemread(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	return kMemread(st, m, a.next())
}

func kMuxMemread(st unsafe.Pointer, m *Machine, a *Op) *Op {
	*at(st, a.D) = pick(*at(st, a.A), *at(st, a.B), *at(st, a.C)) & mask8(a.DW)
	return kMemread(st, m, a.next())
}

func kMuxMuxMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	b := a.next()
	*at(st, a.D) = pick(*at(st, a.A), *at(st, a.B), *at(st, a.C)) & mask8(a.DW)
	*at(st, b.D) = pick(*at(st, b.A), *at(st, b.B), *at(st, b.C)) & mask8(b.DW)
	return kMux(st, m, b.next())
}

func kBitsAndMux(st unsafe.Pointer, m *Machine, a *Op) *Op {
	b := a.next()
	*at(st, a.D) = (*at(st, a.A) >> a.Sh) & mask8(a.DW)
	*at(st, b.D) = *at(st, b.A) & *at(st, b.B) & mask8(b.DW)
	return kMux(st, m, b.next())
}

// narrowKernels is each opcode's single-instruction narrow kernel.
var narrowKernels = [cOpCount]kernel{
	CCopy: kCopy, CAdd: kAdd, CSub: kSub, CMul: kMul,
	CDiv: kDiv, CRem: kRem, CNeg: kNeg, CAnd: kAnd,
	COr: kOr, CXor: kXor, CNot: kNot, CAndR: kAndr,
	COrR: kOrr, CXorR: kXorr, CEq: kEq, CNeq: kNeq,
	CLt: kLt, CLeq: kLeq, CGt: kGt, CGeq: kGeq,
	CSLt: kSlt, CSLeq: kSleq, CSGt: kSgt, CSGeq: kSgeq,
	CShl: kShl, CShr: kShr, CDshl: kDshl, CDshr: kDshr,
	CCat: kCat, CBits: kBits, CSExt: kSext, CMux: kMux,
	CMemRead: kMemread,
}

// windowKernels maps a fused window's opcodes — a pair's third is
// CInvalid — to its kernel.
var windowKernels = map[[3]OpCode]kernel{
	{CEq, CMux}: kEqMux, {CNeq, CMux}: kNeqMux, {CLt, CMux}: kLtMux, {CLeq, CMux}: kLeqMux,
	{CGt, CMux}: kGtMux, {CGeq, CMux}: kGeqMux, {CSLt, CMux}: kSltMux, {CSLeq, CMux}: kSleqMux,
	{CSGt, CMux}: kSgtMux, {CSGeq, CMux}: kSgeqMux, {CMux, CMux}: kMuxMux, {CMul, CMux}: kMulMux,
	{COr, CMux}: kOrMux, {CXor, CMux}: kXorMux, {CNot, CMux}: kNotMux, {COrR, CMux}: kOrrMux,
	{CShr, CMux}: kShrMux, {CDshl, CMux}: kDshlMux, {CCat, CMux}: kCatMux, {CBits, CMux}: kBitsMux,
	{CAdd, CCopy}: kAddCopy, {CAdd, CBits}: kAddBits, {CSub, CCopy}: kSubCopy, {CSub, CBits}: kSubBits,
	{CMul, CCopy}: kMulCopy, {CMul, CBits}: kMulBits, {COr, CCopy}: kOrCopy, {COr, CBits}: kOrBits,
	{CXor, CCopy}: kXorCopy, {CXor, CBits}: kXorBits, {CNot, CCopy}: kNotCopy, {CNot, CBits}: kNotBits,
	{COrR, CCopy}: kOrrCopy, {COrR, CBits}: kOrrBits, {CLt, CCopy}: kLtCopy, {CLt, CBits}: kLtBits,
	{CShr, CCopy}: kShrCopy, {CShr, CBits}: kShrBits, {CDshl, CCopy}: kDshlCopy, {CDshl, CBits}: kDshlBits,
	{CCat, CCopy}: kCatCopy, {CCat, CBits}: kCatBits, {CBits, CCopy}: kBitsCopy, {CBits, CBits}: kBitsBits,
	{CMux, CCopy}: kMuxCopy, {CMux, CBits}: kMuxBits, {CMul, CCat}: kMulCat, {COr, CCat}: kOrCat,
	{CXor, CCat}: kXorCat, {CNot, CCat}: kNotCat, {COrR, CCat}: kOrrCat, {CLt, CCat}: kLtCat,
	{CShr, CCat}: kShrCat, {CDshl, CCat}: kDshlCat, {CCat, CCat}: kCatCat, {CBits, CCat}: kBitsCat,
	{CMux, CCat}: kMuxCat, {CMul, CAnd}: kMulAnd, {CMul, COr}: kMulOr, {CMul, CXor}: kMulXor,
	{COr, CAnd}: kOrAnd, {COr, COr}: kOrOr, {COr, CXor}: kOrXor, {CXor, CAnd}: kXorAnd,
	{CXor, COr}: kXorOr, {CXor, CXor}: kXorXor, {CNot, CAnd}: kNotAnd, {CNot, COr}: kNotOr,
	{CNot, CXor}: kNotXor, {COrR, CAnd}: kOrrAnd, {COrR, COr}: kOrrOr, {COrR, CXor}: kOrrXor,
	{CLt, CAnd}: kLtAnd, {CLt, COr}: kLtOr, {CLt, CXor}: kLtXor, {CShr, CAnd}: kShrAnd,
	{CShr, COr}: kShrOr, {CShr, CXor}: kShrXor, {CDshl, CAnd}: kDshlAnd, {CDshl, COr}: kDshlOr,
	{CDshl, CXor}: kDshlXor, {CCat, CAnd}: kCatAnd, {CCat, COr}: kCatOr, {CCat, CXor}: kCatXor,
	{CBits, CAnd}: kBitsAnd, {CBits, COr}: kBitsOr, {CBits, CXor}: kBitsXor, {CMux, CAnd}: kMuxAnd,
	{CMux, COr}: kMuxOr, {CMux, CXor}: kMuxXor, {CMul, CEq}: kMulEq, {CMul, CNeq}: kMulNeq,
	{COr, CEq}: kOrEq, {COr, CNeq}: kOrNeq, {CXor, CEq}: kXorEq, {CXor, CNeq}: kXorNeq,
	{CNot, CEq}: kNotEq, {CNot, CNeq}: kNotNeq, {COrR, CEq}: kOrrEq, {COrR, CNeq}: kOrrNeq,
	{CLt, CEq}: kLtEq, {CLt, CNeq}: kLtNeq, {CShr, CEq}: kShrEq, {CShr, CNeq}: kShrNeq,
	{CDshl, CEq}: kDshlEq, {CDshl, CNeq}: kDshlNeq, {CCat, CEq}: kCatEq, {CCat, CNeq}: kCatNeq,
	{CBits, CEq}: kBitsEq, {CBits, CNeq}: kBitsNeq, {CMux, CEq}: kMuxEq, {CMux, CNeq}: kMuxNeq,
	{CMul, CMemRead}: kMulMemread, {COr, CMemRead}: kOrMemread, {CXor, CMemRead}: kXorMemread, {CNot, CMemRead}: kNotMemread,
	{COrR, CMemRead}: kOrrMemread, {CLt, CMemRead}: kLtMemread, {CShr, CMemRead}: kShrMemread, {CDshl, CMemRead}: kDshlMemread,
	{CCat, CMemRead}: kCatMemread, {CBits, CMemRead}: kBitsMemread, {CMux, CMemRead}: kMuxMemread, {CMux, CMux, CMux}: kMuxMuxMux,
	{CBits, CAnd, CMux}: kBitsAndMux,
}
