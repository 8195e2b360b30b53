// Code generated by rulegen from internal/emit/rules; DO NOT EDIT.
// Regenerate with: go generate ./internal/emit/...

package emit

import "math/bits"

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
func compileFuse2(m *Machine, a, b Instr, r FuseRule) BoundFn {
	switch r {
	case FuseRuleCopyMux:
		return fuseCopyMux(m, a, b)
	case FuseRuleCmpMux:
		return fuseCmpMux(m, a, b)
	case FuseRuleMuxMux:
		return fuseMuxMux(m, a, b)
	case FuseRuleAluMux:
		return fuseAluMux(m, a, b)
	case FuseRuleAddMask:
		return fuseAddMask(m, a, b)
	case FuseRuleSubMask:
		return fuseSubMask(m, a, b)
	case FuseRuleAluMask:
		return fuseAluMask(m, a, b)
	case FuseRuleAluCat:
		return fuseAluCat(m, a, b)
	case FuseRuleAluLogic:
		return fuseAluLogic(m, a, b)
	case FuseRuleAndEqz:
		return fuseAndEqz(m, a, b)
	case FuseRuleAluEq:
		return fuseAluEq(m, a, b)
	case FuseRuleAndOrr:
		return fuseAndEqz(m, a, b)
	case FuseRuleAluMemread:
		return fuseAluMemRead(m, a, b)
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
func compileFuse3(m *Machine, a, b, c Instr, r FuseRule) BoundFn {
	switch r {
	case FuseRuleMuxMuxMux:
		return fuseMuxMuxMux(m, a, b, c)
	case FuseRuleCmpMuxMux:
		return fuseCmpMuxMux(m, a, b, c)
	}
	panic("emit: compileFuse3: no constructor for rule " + r.String())
}

// InlineProducer reports whether op's value row is marked Inline: the pure
// producer class of the generic fusion rules, whose constructors inline
// exactly these rows.
func InlineProducer(op OpCode) bool {
	switch op {
	case CMul, COr, CXor, CNot, COrR, CLt, CShr, CDshl, CCat, CBits, CMux:
		return true
	}
	return false
}

// compilePureBound builds the single-instruction narrow kernel of a pure
// opcode, its value row stored to D; nil for an opcode without a row.
func compilePureBound(st []uint64, in Instr) BoundFn {
	pd := &st[in.D]
	switch in.Op {
	case CCopy:
		pa, dm := &st[in.A], mask(in.DW)
		return func() { *pd = *pa & dm }
	case CAdd:
		pa, pb, dm := &st[in.A], &st[in.B], mask(in.DW)
		return func() { *pd = (*pa + *pb) & dm }
	case CSub:
		pa, pb, dm := &st[in.A], &st[in.B], mask(in.DW)
		return func() { *pd = (*pa - *pb) & dm }
	case CMul:
		pa, pb, dm := &st[in.A], &st[in.B], mask(in.DW)
		return func() { *pd = (*pa * *pb) & dm }
	case CDiv:
		pa, pb, dm := &st[in.A], &st[in.B], mask(in.DW)
		return func() { *pd = divz(*pa, *pb) & dm }
	case CRem:
		pa, pb, dm := &st[in.A], &st[in.B], mask(in.DW)
		return func() { *pd = remz(*pa, *pb) & dm }
	case CNeg:
		pa, dm := &st[in.A], mask(in.DW)
		return func() { *pd = -*pa & dm }
	case CAnd:
		pa, pb, dm := &st[in.A], &st[in.B], mask(in.DW)
		return func() { *pd = *pa & *pb & dm }
	case COr:
		pa, pb, dm := &st[in.A], &st[in.B], mask(in.DW)
		return func() { *pd = (*pa | *pb) & dm }
	case CXor:
		pa, pb, dm := &st[in.A], &st[in.B], mask(in.DW)
		return func() { *pd = (*pa ^ *pb) & dm }
	case CNot:
		pa, dm := &st[in.A], mask(in.DW)
		return func() { *pd = ^*pa & dm }
	case CAndR:
		pa, am := &st[in.A], mask(in.AW)
		return func() { *pd = b2u(*pa == am) }
	case COrR:
		pa := &st[in.A]
		return func() { *pd = b2u(*pa != 0) }
	case CXorR:
		pa := &st[in.A]
		return func() { *pd = uint64(bits.OnesCount64(*pa)) & 1 }
	case CEq:
		pa, pb := &st[in.A], &st[in.B]
		return func() { *pd = b2u(*pa == *pb) }
	case CNeq:
		pa, pb := &st[in.A], &st[in.B]
		return func() { *pd = b2u(*pa != *pb) }
	case CLt:
		pa, pb := &st[in.A], &st[in.B]
		return func() { *pd = b2u(*pa < *pb) }
	case CLeq:
		pa, pb := &st[in.A], &st[in.B]
		return func() { *pd = b2u(*pa <= *pb) }
	case CGt:
		pa, pb := &st[in.A], &st[in.B]
		return func() { *pd = b2u(*pa > *pb) }
	case CGeq:
		pa, pb := &st[in.A], &st[in.B]
		return func() { *pd = b2u(*pa >= *pb) }
	case CSLt:
		pa, aw, pb, bw := &st[in.A], in.AW, &st[in.B], in.BW
		return func() { *pd = b2u(sext64(*pa, aw) < sext64(*pb, bw)) }
	case CSLeq:
		pa, aw, pb, bw := &st[in.A], in.AW, &st[in.B], in.BW
		return func() { *pd = b2u(sext64(*pa, aw) <= sext64(*pb, bw)) }
	case CSGt:
		pa, aw, pb, bw := &st[in.A], in.AW, &st[in.B], in.BW
		return func() { *pd = b2u(sext64(*pa, aw) > sext64(*pb, bw)) }
	case CSGeq:
		pa, aw, pb, bw := &st[in.A], in.AW, &st[in.B], in.BW
		return func() { *pd = b2u(sext64(*pa, aw) >= sext64(*pb, bw)) }
	case CShl:
		pa, sh, dm := &st[in.A], uint(in.Lo), mask(in.DW)
		return func() { *pd = (*pa << sh) & dm }
	case CShr:
		pa, sh, dm := &st[in.A], uint(in.Lo), mask(in.DW)
		return func() { *pd = (*pa >> sh) & dm }
	case CDshl:
		pa, pb, dm := &st[in.A], &st[in.B], mask(in.DW)
		return func() { *pd = (*pa << *pb) & dm }
	case CDshr:
		pa, pb, dm := &st[in.A], &st[in.B], mask(in.DW)
		return func() { *pd = (*pa >> *pb) & dm }
	case CCat:
		pa, cs, pb, dm := &st[in.A], uint(in.BW), &st[in.B], mask(in.DW)
		return func() { *pd = (*pa<<cs | *pb) & dm }
	case CBits:
		pa, sh, dm := &st[in.A], uint(in.Lo), mask(in.DW)
		return func() { *pd = (*pa >> sh) & dm }
	case CSExt:
		pa, aw, dm := &st[in.A], in.AW, mask(in.DW)
		return func() { *pd = uint64(sext64(*pa, aw)) & dm }
	case CMux:
		pa, pb, pc, dm := &st[in.A], &st[in.B], &st[in.C], mask(in.DW)
		return func() { *pd = pick(*pa, *pb, *pc) & dm }
	}
	return nil
}

// fuseAluMux compiles alu-mux, (pure) >> (mux t? t? t?): one closure per
// inline producer and consumer opcode, both value rows inlined.
func fuseAluMux(m *Machine, a, b Instr) BoundFn {
	st := m.State
	pad, pbd := &st[a.D], &st[b.D]
	pba, pbb, pbc, bdm := &st[b.A], &st[b.B], &st[b.C], mask(b.DW)
	switch a.Op {
	case CMul:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		return func() { t := (*pa * *pb) & dm; *pad = t; *pbd = pick(*pba, *pbb, *pbc) & bdm }
	case COr:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		return func() { t := (*pa | *pb) & dm; *pad = t; *pbd = pick(*pba, *pbb, *pbc) & bdm }
	case CXor:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		return func() { t := (*pa ^ *pb) & dm; *pad = t; *pbd = pick(*pba, *pbb, *pbc) & bdm }
	case CNot:
		pa, dm := &st[a.A], mask(a.DW)
		return func() { t := ^*pa & dm; *pad = t; *pbd = pick(*pba, *pbb, *pbc) & bdm }
	case COrR:
		pa := &st[a.A]
		return func() { t := b2u(*pa != 0); *pad = t; *pbd = pick(*pba, *pbb, *pbc) & bdm }
	case CLt:
		pa, pb := &st[a.A], &st[a.B]
		return func() { t := b2u(*pa < *pb); *pad = t; *pbd = pick(*pba, *pbb, *pbc) & bdm }
	case CShr:
		pa, sh, dm := &st[a.A], uint(a.Lo), mask(a.DW)
		return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = pick(*pba, *pbb, *pbc) & bdm }
	case CDshl:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		return func() { t := (*pa << *pb) & dm; *pad = t; *pbd = pick(*pba, *pbb, *pbc) & bdm }
	case CCat:
		pa, cs, pb, dm := &st[a.A], uint(a.BW), &st[a.B], mask(a.DW)
		return func() { t := (*pa<<cs | *pb) & dm; *pad = t; *pbd = pick(*pba, *pbb, *pbc) & bdm }
	case CBits:
		pa, sh, dm := &st[a.A], uint(a.Lo), mask(a.DW)
		return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = pick(*pba, *pbb, *pbc) & bdm }
	case CMux:
		pa, pb, pc, dm := &st[a.A], &st[a.B], &st[a.C], mask(a.DW)
		return func() { t := pick(*pa, *pb, *pc) & dm; *pad = t; *pbd = pick(*pba, *pbb, *pbc) & bdm }
	}
	panic("emit: fuseAluMux: producer " + a.Op.String() + " is not inline")
}

// fuseAluMask compiles alu-mask, (pure) >> (mask t): one closure per
// inline producer and consumer opcode, both value rows inlined.
func fuseAluMask(m *Machine, a, b Instr) BoundFn {
	st := m.State
	pad, pbd := &st[a.D], &st[b.D]
	bdm, bsh := mask(b.DW), uint(b.Lo)
	switch a.Op {
	case CMul:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		switch b.Op {
		case CCopy:
			return func() { t := (*pa * *pb) & dm; *pad = t; *pbd = t & bdm }
		case CBits:
			return func() { t := (*pa * *pb) & dm; *pad = t; *pbd = (t >> bsh) & bdm }
		}
	case COr:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		switch b.Op {
		case CCopy:
			return func() { t := (*pa | *pb) & dm; *pad = t; *pbd = t & bdm }
		case CBits:
			return func() { t := (*pa | *pb) & dm; *pad = t; *pbd = (t >> bsh) & bdm }
		}
	case CXor:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		switch b.Op {
		case CCopy:
			return func() { t := (*pa ^ *pb) & dm; *pad = t; *pbd = t & bdm }
		case CBits:
			return func() { t := (*pa ^ *pb) & dm; *pad = t; *pbd = (t >> bsh) & bdm }
		}
	case CNot:
		pa, dm := &st[a.A], mask(a.DW)
		switch b.Op {
		case CCopy:
			return func() { t := ^*pa & dm; *pad = t; *pbd = t & bdm }
		case CBits:
			return func() { t := ^*pa & dm; *pad = t; *pbd = (t >> bsh) & bdm }
		}
	case COrR:
		pa := &st[a.A]
		switch b.Op {
		case CCopy:
			return func() { t := b2u(*pa != 0); *pad = t; *pbd = t & bdm }
		case CBits:
			return func() { t := b2u(*pa != 0); *pad = t; *pbd = (t >> bsh) & bdm }
		}
	case CLt:
		pa, pb := &st[a.A], &st[a.B]
		switch b.Op {
		case CCopy:
			return func() { t := b2u(*pa < *pb); *pad = t; *pbd = t & bdm }
		case CBits:
			return func() { t := b2u(*pa < *pb); *pad = t; *pbd = (t >> bsh) & bdm }
		}
	case CShr:
		pa, sh, dm := &st[a.A], uint(a.Lo), mask(a.DW)
		switch b.Op {
		case CCopy:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = t & bdm }
		case CBits:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = (t >> bsh) & bdm }
		}
	case CDshl:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		switch b.Op {
		case CCopy:
			return func() { t := (*pa << *pb) & dm; *pad = t; *pbd = t & bdm }
		case CBits:
			return func() { t := (*pa << *pb) & dm; *pad = t; *pbd = (t >> bsh) & bdm }
		}
	case CCat:
		pa, cs, pb, dm := &st[a.A], uint(a.BW), &st[a.B], mask(a.DW)
		switch b.Op {
		case CCopy:
			return func() { t := (*pa<<cs | *pb) & dm; *pad = t; *pbd = t & bdm }
		case CBits:
			return func() { t := (*pa<<cs | *pb) & dm; *pad = t; *pbd = (t >> bsh) & bdm }
		}
	case CBits:
		pa, sh, dm := &st[a.A], uint(a.Lo), mask(a.DW)
		switch b.Op {
		case CCopy:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = t & bdm }
		case CBits:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = (t >> bsh) & bdm }
		}
	case CMux:
		pa, pb, pc, dm := &st[a.A], &st[a.B], &st[a.C], mask(a.DW)
		switch b.Op {
		case CCopy:
			return func() { t := pick(*pa, *pb, *pc) & dm; *pad = t; *pbd = t & bdm }
		case CBits:
			return func() { t := pick(*pa, *pb, *pc) & dm; *pad = t; *pbd = (t >> bsh) & bdm }
		}
	}
	panic("emit: fuseAluMask: producer " + a.Op.String() + " is not inline")
}

// fuseAluCat compiles alu-cat, (pure) >> (cat t? t?): one closure per
// inline producer and consumer opcode, both value rows inlined.
func fuseAluCat(m *Machine, a, b Instr) BoundFn {
	st := m.State
	pad, pbd := &st[a.D], &st[b.D]
	pba, bcs, pbb, bdm := &st[b.A], uint(b.BW), &st[b.B], mask(b.DW)
	switch a.Op {
	case CMul:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		return func() { t := (*pa * *pb) & dm; *pad = t; *pbd = (*pba<<bcs | *pbb) & bdm }
	case COr:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		return func() { t := (*pa | *pb) & dm; *pad = t; *pbd = (*pba<<bcs | *pbb) & bdm }
	case CXor:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		return func() { t := (*pa ^ *pb) & dm; *pad = t; *pbd = (*pba<<bcs | *pbb) & bdm }
	case CNot:
		pa, dm := &st[a.A], mask(a.DW)
		return func() { t := ^*pa & dm; *pad = t; *pbd = (*pba<<bcs | *pbb) & bdm }
	case COrR:
		pa := &st[a.A]
		return func() { t := b2u(*pa != 0); *pad = t; *pbd = (*pba<<bcs | *pbb) & bdm }
	case CLt:
		pa, pb := &st[a.A], &st[a.B]
		return func() { t := b2u(*pa < *pb); *pad = t; *pbd = (*pba<<bcs | *pbb) & bdm }
	case CShr:
		pa, sh, dm := &st[a.A], uint(a.Lo), mask(a.DW)
		return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = (*pba<<bcs | *pbb) & bdm }
	case CDshl:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		return func() { t := (*pa << *pb) & dm; *pad = t; *pbd = (*pba<<bcs | *pbb) & bdm }
	case CCat:
		pa, cs, pb, dm := &st[a.A], uint(a.BW), &st[a.B], mask(a.DW)
		return func() { t := (*pa<<cs | *pb) & dm; *pad = t; *pbd = (*pba<<bcs | *pbb) & bdm }
	case CBits:
		pa, sh, dm := &st[a.A], uint(a.Lo), mask(a.DW)
		return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = (*pba<<bcs | *pbb) & bdm }
	case CMux:
		pa, pb, pc, dm := &st[a.A], &st[a.B], &st[a.C], mask(a.DW)
		return func() { t := pick(*pa, *pb, *pc) & dm; *pad = t; *pbd = (*pba<<bcs | *pbb) & bdm }
	}
	panic("emit: fuseAluCat: producer " + a.Op.String() + " is not inline")
}

// fuseAluLogic compiles alu-logic, (pure) >> (logic t? t?): one closure per
// inline producer and consumer opcode, both value rows inlined.
func fuseAluLogic(m *Machine, a, b Instr) BoundFn {
	st := m.State
	pad, pbd := &st[a.D], &st[b.D]
	pba, pbb, bdm := &st[b.A], &st[b.B], mask(b.DW)
	switch a.Op {
	case CMul:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		switch b.Op {
		case CAnd:
			return func() { t := (*pa * *pb) & dm; *pad = t; *pbd = *pba & *pbb & bdm }
		case COr:
			return func() { t := (*pa * *pb) & dm; *pad = t; *pbd = (*pba | *pbb) & bdm }
		case CXor:
			return func() { t := (*pa * *pb) & dm; *pad = t; *pbd = (*pba ^ *pbb) & bdm }
		}
	case COr:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		switch b.Op {
		case CAnd:
			return func() { t := (*pa | *pb) & dm; *pad = t; *pbd = *pba & *pbb & bdm }
		case COr:
			return func() { t := (*pa | *pb) & dm; *pad = t; *pbd = (*pba | *pbb) & bdm }
		case CXor:
			return func() { t := (*pa | *pb) & dm; *pad = t; *pbd = (*pba ^ *pbb) & bdm }
		}
	case CXor:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		switch b.Op {
		case CAnd:
			return func() { t := (*pa ^ *pb) & dm; *pad = t; *pbd = *pba & *pbb & bdm }
		case COr:
			return func() { t := (*pa ^ *pb) & dm; *pad = t; *pbd = (*pba | *pbb) & bdm }
		case CXor:
			return func() { t := (*pa ^ *pb) & dm; *pad = t; *pbd = (*pba ^ *pbb) & bdm }
		}
	case CNot:
		pa, dm := &st[a.A], mask(a.DW)
		switch b.Op {
		case CAnd:
			return func() { t := ^*pa & dm; *pad = t; *pbd = *pba & *pbb & bdm }
		case COr:
			return func() { t := ^*pa & dm; *pad = t; *pbd = (*pba | *pbb) & bdm }
		case CXor:
			return func() { t := ^*pa & dm; *pad = t; *pbd = (*pba ^ *pbb) & bdm }
		}
	case COrR:
		pa := &st[a.A]
		switch b.Op {
		case CAnd:
			return func() { t := b2u(*pa != 0); *pad = t; *pbd = *pba & *pbb & bdm }
		case COr:
			return func() { t := b2u(*pa != 0); *pad = t; *pbd = (*pba | *pbb) & bdm }
		case CXor:
			return func() { t := b2u(*pa != 0); *pad = t; *pbd = (*pba ^ *pbb) & bdm }
		}
	case CLt:
		pa, pb := &st[a.A], &st[a.B]
		switch b.Op {
		case CAnd:
			return func() { t := b2u(*pa < *pb); *pad = t; *pbd = *pba & *pbb & bdm }
		case COr:
			return func() { t := b2u(*pa < *pb); *pad = t; *pbd = (*pba | *pbb) & bdm }
		case CXor:
			return func() { t := b2u(*pa < *pb); *pad = t; *pbd = (*pba ^ *pbb) & bdm }
		}
	case CShr:
		pa, sh, dm := &st[a.A], uint(a.Lo), mask(a.DW)
		switch b.Op {
		case CAnd:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = *pba & *pbb & bdm }
		case COr:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = (*pba | *pbb) & bdm }
		case CXor:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = (*pba ^ *pbb) & bdm }
		}
	case CDshl:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		switch b.Op {
		case CAnd:
			return func() { t := (*pa << *pb) & dm; *pad = t; *pbd = *pba & *pbb & bdm }
		case COr:
			return func() { t := (*pa << *pb) & dm; *pad = t; *pbd = (*pba | *pbb) & bdm }
		case CXor:
			return func() { t := (*pa << *pb) & dm; *pad = t; *pbd = (*pba ^ *pbb) & bdm }
		}
	case CCat:
		pa, cs, pb, dm := &st[a.A], uint(a.BW), &st[a.B], mask(a.DW)
		switch b.Op {
		case CAnd:
			return func() { t := (*pa<<cs | *pb) & dm; *pad = t; *pbd = *pba & *pbb & bdm }
		case COr:
			return func() { t := (*pa<<cs | *pb) & dm; *pad = t; *pbd = (*pba | *pbb) & bdm }
		case CXor:
			return func() { t := (*pa<<cs | *pb) & dm; *pad = t; *pbd = (*pba ^ *pbb) & bdm }
		}
	case CBits:
		pa, sh, dm := &st[a.A], uint(a.Lo), mask(a.DW)
		switch b.Op {
		case CAnd:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = *pba & *pbb & bdm }
		case COr:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = (*pba | *pbb) & bdm }
		case CXor:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = (*pba ^ *pbb) & bdm }
		}
	case CMux:
		pa, pb, pc, dm := &st[a.A], &st[a.B], &st[a.C], mask(a.DW)
		switch b.Op {
		case CAnd:
			return func() { t := pick(*pa, *pb, *pc) & dm; *pad = t; *pbd = *pba & *pbb & bdm }
		case COr:
			return func() { t := pick(*pa, *pb, *pc) & dm; *pad = t; *pbd = (*pba | *pbb) & bdm }
		case CXor:
			return func() { t := pick(*pa, *pb, *pc) & dm; *pad = t; *pbd = (*pba ^ *pbb) & bdm }
		}
	}
	panic("emit: fuseAluLogic: producer " + a.Op.String() + " is not inline")
}

// fuseAluEq compiles alu-eq, (pure) >> (eqz t? t?): one closure per
// inline producer and consumer opcode, both value rows inlined.
func fuseAluEq(m *Machine, a, b Instr) BoundFn {
	st := m.State
	pad, pbd := &st[a.D], &st[b.D]
	pba, pbb := &st[b.A], &st[b.B]
	switch a.Op {
	case CMul:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		switch b.Op {
		case CEq:
			return func() { t := (*pa * *pb) & dm; *pad = t; *pbd = b2u(*pba == *pbb) }
		case CNeq:
			return func() { t := (*pa * *pb) & dm; *pad = t; *pbd = b2u(*pba != *pbb) }
		}
	case COr:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		switch b.Op {
		case CEq:
			return func() { t := (*pa | *pb) & dm; *pad = t; *pbd = b2u(*pba == *pbb) }
		case CNeq:
			return func() { t := (*pa | *pb) & dm; *pad = t; *pbd = b2u(*pba != *pbb) }
		}
	case CXor:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		switch b.Op {
		case CEq:
			return func() { t := (*pa ^ *pb) & dm; *pad = t; *pbd = b2u(*pba == *pbb) }
		case CNeq:
			return func() { t := (*pa ^ *pb) & dm; *pad = t; *pbd = b2u(*pba != *pbb) }
		}
	case CNot:
		pa, dm := &st[a.A], mask(a.DW)
		switch b.Op {
		case CEq:
			return func() { t := ^*pa & dm; *pad = t; *pbd = b2u(*pba == *pbb) }
		case CNeq:
			return func() { t := ^*pa & dm; *pad = t; *pbd = b2u(*pba != *pbb) }
		}
	case COrR:
		pa := &st[a.A]
		switch b.Op {
		case CEq:
			return func() { t := b2u(*pa != 0); *pad = t; *pbd = b2u(*pba == *pbb) }
		case CNeq:
			return func() { t := b2u(*pa != 0); *pad = t; *pbd = b2u(*pba != *pbb) }
		}
	case CLt:
		pa, pb := &st[a.A], &st[a.B]
		switch b.Op {
		case CEq:
			return func() { t := b2u(*pa < *pb); *pad = t; *pbd = b2u(*pba == *pbb) }
		case CNeq:
			return func() { t := b2u(*pa < *pb); *pad = t; *pbd = b2u(*pba != *pbb) }
		}
	case CShr:
		pa, sh, dm := &st[a.A], uint(a.Lo), mask(a.DW)
		switch b.Op {
		case CEq:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = b2u(*pba == *pbb) }
		case CNeq:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = b2u(*pba != *pbb) }
		}
	case CDshl:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		switch b.Op {
		case CEq:
			return func() { t := (*pa << *pb) & dm; *pad = t; *pbd = b2u(*pba == *pbb) }
		case CNeq:
			return func() { t := (*pa << *pb) & dm; *pad = t; *pbd = b2u(*pba != *pbb) }
		}
	case CCat:
		pa, cs, pb, dm := &st[a.A], uint(a.BW), &st[a.B], mask(a.DW)
		switch b.Op {
		case CEq:
			return func() { t := (*pa<<cs | *pb) & dm; *pad = t; *pbd = b2u(*pba == *pbb) }
		case CNeq:
			return func() { t := (*pa<<cs | *pb) & dm; *pad = t; *pbd = b2u(*pba != *pbb) }
		}
	case CBits:
		pa, sh, dm := &st[a.A], uint(a.Lo), mask(a.DW)
		switch b.Op {
		case CEq:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = b2u(*pba == *pbb) }
		case CNeq:
			return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = b2u(*pba != *pbb) }
		}
	case CMux:
		pa, pb, pc, dm := &st[a.A], &st[a.B], &st[a.C], mask(a.DW)
		switch b.Op {
		case CEq:
			return func() { t := pick(*pa, *pb, *pc) & dm; *pad = t; *pbd = b2u(*pba == *pbb) }
		case CNeq:
			return func() { t := pick(*pa, *pb, *pc) & dm; *pad = t; *pbd = b2u(*pba != *pbb) }
		}
	}
	panic("emit: fuseAluEq: producer " + a.Op.String() + " is not inline")
}

// fuseAluMemRead compiles alu-memread, (pure) >> (memread t): one closure per
// inline producer and consumer opcode, both value rows inlined.
func fuseAluMemRead(m *Machine, a, b Instr) BoundFn {
	st := m.State
	pad, pbd := &st[a.D], &st[b.D]
	bdm := mask(b.DW)
	mem, depth, wp := memPort(m, b.Lo)
	switch a.Op {
	case CMul:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		return func() { t := (*pa * *pb) & dm; *pad = t; *pbd = readMem(mem, t, depth, wp) & bdm }
	case COr:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		return func() { t := (*pa | *pb) & dm; *pad = t; *pbd = readMem(mem, t, depth, wp) & bdm }
	case CXor:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		return func() { t := (*pa ^ *pb) & dm; *pad = t; *pbd = readMem(mem, t, depth, wp) & bdm }
	case CNot:
		pa, dm := &st[a.A], mask(a.DW)
		return func() { t := ^*pa & dm; *pad = t; *pbd = readMem(mem, t, depth, wp) & bdm }
	case COrR:
		pa := &st[a.A]
		return func() { t := b2u(*pa != 0); *pad = t; *pbd = readMem(mem, t, depth, wp) & bdm }
	case CLt:
		pa, pb := &st[a.A], &st[a.B]
		return func() { t := b2u(*pa < *pb); *pad = t; *pbd = readMem(mem, t, depth, wp) & bdm }
	case CShr:
		pa, sh, dm := &st[a.A], uint(a.Lo), mask(a.DW)
		return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = readMem(mem, t, depth, wp) & bdm }
	case CDshl:
		pa, pb, dm := &st[a.A], &st[a.B], mask(a.DW)
		return func() { t := (*pa << *pb) & dm; *pad = t; *pbd = readMem(mem, t, depth, wp) & bdm }
	case CCat:
		pa, cs, pb, dm := &st[a.A], uint(a.BW), &st[a.B], mask(a.DW)
		return func() { t := (*pa<<cs | *pb) & dm; *pad = t; *pbd = readMem(mem, t, depth, wp) & bdm }
	case CBits:
		pa, sh, dm := &st[a.A], uint(a.Lo), mask(a.DW)
		return func() { t := (*pa >> sh) & dm; *pad = t; *pbd = readMem(mem, t, depth, wp) & bdm }
	case CMux:
		pa, pb, pc, dm := &st[a.A], &st[a.B], &st[a.C], mask(a.DW)
		return func() { t := pick(*pa, *pb, *pc) & dm; *pad = t; *pbd = readMem(mem, t, depth, wp) & bdm }
	}
	panic("emit: fuseAluMemRead: producer " + a.Op.String() + " is not inline")
}
