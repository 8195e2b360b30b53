package emit

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gsim/internal/bitvec"
)

// fusionCase is one exemplar instruction window for a fusion rule. A
// generated generic exemplar may instead be claimed by a specialized pair
// rule ahead of its rule in the table (earlierOK).
type fusionCase struct {
	name      string
	rule      FuseRule
	ins       []Instr
	earlierOK bool
}

// fusionExemplars maps every generated fusion rule to at least one concrete
// instruction window. TestFusionRuleCoverage sweeps the FuseRule
// enumeration against this table, so adding a table line without an
// exemplar fails the suite — the generated sentinel (NumFuseRules) is the
// checklist.
//
// Slot layout: words 0-9 hold operands, 10 is the first instruction's
// destination, 11 the second's, 12 the third's (triples).
func fusionExemplars() []fusionCase {
	pair := func(name string, rule FuseRule, a, b Instr) fusionCase {
		return fusionCase{name: name, rule: rule, ins: []Instr{a, b}}
	}
	cmp := func(op OpCode) fusionCase {
		return pair("cmp-mux", FuseRuleCmpMux,
			Instr{Op: op, D: 10, DW: 1, A: 0, AW: 14, B: 1, BW: 11},
			Instr{Op: CMux, D: 11, DW: 24, A: 10, AW: 1, B: 2, BW: 24, C: 3})
	}
	triple := func(name string, rule FuseRule, a, b, c Instr) fusionCase {
		return fusionCase{name: name, rule: rule, ins: []Instr{a, b, c}}
	}
	cases := []fusionCase{
		pair("add-then-mask-bits", FuseRuleAddMask,
			Instr{Op: CAdd, D: 10, DW: 17, A: 0, AW: 16, B: 1, BW: 16},
			Instr{Op: CBits, D: 11, DW: 16, A: 10, AW: 17, Hi: 15, Lo: 0}),
		pair("add-then-mask-copy", FuseRuleAddMask,
			Instr{Op: CAdd, D: 10, DW: 33, A: 0, AW: 32, B: 1, BW: 32},
			Instr{Op: CCopy, D: 11, DW: 32, A: 10, AW: 33}),
		pair("sub-then-mask-bits", FuseRuleSubMask,
			Instr{Op: CSub, D: 10, DW: 16, A: 0, AW: 16, B: 1, BW: 16},
			Instr{Op: CBits, D: 11, DW: 8, A: 10, AW: 16, Hi: 7, Lo: 0}),
		pair("mux-into-mux", FuseRuleMuxMux,
			Instr{Op: CMux, D: 10, DW: 16, A: 0, AW: 1, B: 1, BW: 16, C: 2},
			Instr{Op: CMux, D: 11, DW: 16, A: 3, AW: 1, B: 4, BW: 16, C: 10}),
		pair("add-then-carry-slice", FuseRuleAddMask, // bits at a non-zero offset
			Instr{Op: CAdd, D: 10, DW: 17, A: 0, AW: 16, B: 1, BW: 16},
			Instr{Op: CBits, D: 11, DW: 1, A: 10, AW: 17, Hi: 16, Lo: 16}),
		pair("bits-into-bits", FuseRuleAluMask,
			Instr{Op: CBits, D: 10, DW: 12, A: 0, AW: 20, Hi: 15, Lo: 4},
			Instr{Op: CBits, D: 11, DW: 4, A: 10, AW: 12, Hi: 5, Lo: 2}),
		pair("shr-into-copy", FuseRuleAluMask,
			Instr{Op: CShr, D: 10, DW: 12, A: 0, AW: 16, Lo: 4},
			Instr{Op: CCopy, D: 11, DW: 10, A: 10, AW: 12}),
		pair("bits-into-mux-arm", FuseRuleAluMux,
			Instr{Op: CBits, D: 10, DW: 8, A: 0, AW: 20, Hi: 7, Lo: 2},
			Instr{Op: CMux, D: 11, DW: 8, A: 1, AW: 1, B: 10, BW: 8, C: 2}),
		pair("xor-into-mux-sel", FuseRuleAluMux,
			Instr{Op: CXor, D: 10, DW: 1, A: 0, AW: 1, B: 1, BW: 1},
			Instr{Op: CMux, D: 11, DW: 16, A: 10, AW: 1, B: 2, BW: 16, C: 3}),
		pair("bits-into-cat-hi", FuseRuleAluCat,
			Instr{Op: CBits, D: 10, DW: 8, A: 0, AW: 20, Hi: 9, Lo: 2},
			Instr{Op: CCat, D: 11, DW: 24, A: 10, AW: 8, B: 1, BW: 16}),
		pair("mul-into-cat-lo", FuseRuleAluCat,
			Instr{Op: CMul, D: 10, DW: 20, A: 0, AW: 20, B: 1, BW: 20},
			Instr{Op: CCat, D: 11, DW: 28, A: 2, AW: 8, B: 10, BW: 20}),
		pair("lt-into-or", FuseRuleAluLogic,
			Instr{Op: CLt, D: 10, DW: 1, A: 0, AW: 16, B: 1, BW: 16},
			Instr{Op: COr, D: 11, DW: 1, A: 10, AW: 1, B: 2, BW: 1}),
		pair("not-into-and", FuseRuleAluLogic,
			Instr{Op: CNot, D: 10, DW: 16, A: 0, AW: 16},
			Instr{Op: CAnd, D: 11, DW: 16, A: 1, AW: 16, B: 10, BW: 16}),
		pair("orr-into-xor", FuseRuleAluLogic,
			Instr{Op: COrR, D: 10, DW: 1, A: 0, AW: 12},
			Instr{Op: CXor, D: 11, DW: 1, A: 10, AW: 1, B: 2, BW: 1}),
		pair("bits-into-eq", FuseRuleAluEq,
			Instr{Op: CBits, D: 10, DW: 8, A: 0, AW: 20, Hi: 7, Lo: 0},
			Instr{Op: CEq, D: 11, DW: 1, A: 10, AW: 8, B: 1, BW: 8}),
		pair("xor-into-neq", FuseRuleAluEq,
			Instr{Op: CXor, D: 10, DW: 16, A: 0, AW: 16, B: 1, BW: 16},
			Instr{Op: CNeq, D: 11, DW: 1, A: 2, AW: 16, B: 10, BW: 16}),
		pair("bits-into-memread", FuseRuleAluMemread, // DW 2 keeps the address in range
			Instr{Op: CBits, D: 10, DW: 2, A: 0, AW: 16, Hi: 4, Lo: 3},
			Instr{Op: CMemRead, D: 11, DW: 8, A: 10, AW: 2, Lo: 0}),
		// Triples.
		triple("mux-chain-of-three", FuseRuleMuxMuxMux,
			Instr{Op: CMux, D: 10, DW: 16, A: 0, AW: 1, B: 1, BW: 16, C: 2},
			Instr{Op: CMux, D: 11, DW: 16, A: 3, AW: 1, B: 10, BW: 16, C: 4},
			Instr{Op: CMux, D: 12, DW: 16, A: 5, AW: 1, B: 6, BW: 16, C: 11}),
		triple("mux-chain-aliasing", FuseRuleMuxMuxMux, // third mux's selector reads the first dest
			Instr{Op: CMux, D: 10, DW: 1, A: 0, AW: 1, B: 1, BW: 1, C: 2},
			Instr{Op: CMux, D: 11, DW: 16, A: 3, AW: 1, B: 4, BW: 16, C: 10},
			Instr{Op: CMux, D: 12, DW: 16, A: 10, AW: 1, B: 11, BW: 16, C: 5}),
		triple("write-enable-decode", FuseRuleBitsAndMux, // reg next = en & bit ? data : reg
			Instr{Op: CBits, D: 10, DW: 1, A: 0, AW: 20, Hi: 5, Lo: 5},
			Instr{Op: CAnd, D: 11, DW: 1, A: 10, AW: 1, B: 1, BW: 1},
			Instr{Op: CMux, D: 12, DW: 16, A: 11, AW: 1, B: 2, BW: 16, C: 3}),
		triple("bits-and-mux-and-reads-b", FuseRuleBitsAndMux,
			Instr{Op: CBits, D: 10, DW: 4, A: 0, AW: 20, Hi: 9, Lo: 6},
			Instr{Op: CAnd, D: 11, DW: 4, A: 1, AW: 4, B: 10, BW: 4},
			Instr{Op: CMux, D: 12, DW: 4, A: 2, AW: 1, B: 11, BW: 4, C: 3}),
		triple("bits-and-mux-arm-aliases-bits", FuseRuleBitsAndMux, // both and slots and a mux arm read bits.D
			Instr{Op: CBits, D: 10, DW: 8, A: 0, AW: 20, Hi: 10, Lo: 3},
			Instr{Op: CAnd, D: 11, DW: 8, A: 10, AW: 8, B: 10, BW: 8},
			Instr{Op: CMux, D: 12, DW: 8, A: 11, AW: 1, B: 10, BW: 8, C: 11}),
		triple("bits-and-mux-dest-is-source", FuseRuleBitsAndMux, // each destination aliases its own source
			Instr{Op: CBits, D: 0, DW: 1, A: 0, AW: 20, Hi: 7, Lo: 7},
			Instr{Op: CAnd, D: 1, DW: 1, A: 0, AW: 1, B: 1, BW: 1},
			Instr{Op: CMux, D: 3, DW: 16, A: 1, AW: 1, B: 2, BW: 16, C: 3}),
	}
	for _, op := range []OpCode{CEq, CNeq, CLt, CLeq, CGt, CGeq, CSLt, CSLeq, CSGt, CSGeq} {
		cases = append(cases, cmp(op))
	}
	return append(cases, genericExemplars()...)
}

// genericConsumers lists, per generic rule, the consumer opcodes of its
// pattern's class and the operand slots (0 = A, 1 = B, 2 = C) its pattern
// lets the producer feed.
var genericConsumers = map[FuseRule]struct {
	ops   []OpCode
	slots []int
}{
	FuseRuleAluMux:     {[]OpCode{CMux}, []int{0, 1, 2}},
	FuseRuleAluMask:    {[]OpCode{CCopy, CBits}, []int{0}},
	FuseRuleAluCat:     {[]OpCode{CCat}, []int{0, 1}},
	FuseRuleAluLogic:   {[]OpCode{CAnd, COr, CXor}, []int{0, 1}},
	FuseRuleAluEq:      {[]OpCode{CEq, CNeq}, []int{0, 1}},
	FuseRuleAluMemread: {[]OpCode{CMemRead}, []int{0}},
}

// genericExemplars enumerates every window the generated generic
// kernels can be asked to run: each inline producer x generic rule
// x consumer opcode x non-empty set of fed slots (so the consumer reading
// the producer's destination in every slot is included), each in three
// aliasing shapes — distinct slots, the producer's destination equal to its
// own first source, and the consumer's destination equal to the producer's
// source. Widths and static operands are random but narrow.
func genericExemplars() []fusionCase {
	rng := rand.New(rand.NewSource(23))
	width := func() int32 { return []int32{1, 2, 3, 8, 16, 33, 63, 64}[rng.Intn(8)] }
	var cases []fusionCase
	for r := FuseRuleNone + 1; r < NumFuseRules; r++ {
		shape, ok := genericConsumers[r]
		if !ok {
			continue
		}
		for op := CCopy; op < cOpCount; op++ {
			if !InlineProducer(op) {
				continue
			}
			for _, cop := range shape.ops {
				for set := 1; set < 1<<len(shape.slots); set++ {
					for alias := 0; alias < 3; alias++ {
						a := Instr{Op: op, D: 10, DW: width(), A: 0, AW: width(), B: 1, BW: width(), C: 2}
						a.Lo = rng.Int31n(a.AW)
						b := Instr{Op: cop, D: 11, DW: width(), A: 3, AW: width(), B: 4, BW: width(), C: 5}
						if cop == CMemRead {
							b.Lo = 0
						} else {
							b.Lo = rng.Int31n(b.AW)
						}
						switch alias {
						case 1:
							a.D = a.A
						case 2:
							b.D = a.A
						}
						for i, slot := range shape.slots {
							if set&(1<<i) != 0 {
								*[]*int32{&b.A, &b.B, &b.C}[slot] = a.D
							}
						}
						cases = append(cases, fusionCase{
							name: fmt.Sprintf("%s/%s-into-%s/fed%03b/alias%d", r, op, cop, set, alias),
							rule: r, ins: []Instr{a, b}, earlierOK: true,
						})
					}
				}
			}
		}
	}
	return cases
}

// maskOperands canonicalizes every operand slot an instruction pair reads,
// as the compiler's invariants guarantee for real programs (every writer
// masks its result). Zero-width (unset) operands are skipped — unary
// instructions never read their B slot.
func maskOperands(st []uint64, ins ...Instr) {
	for _, in := range ins {
		if in.AW > 0 {
			st[in.A] &= mask(in.AW)
		}
		if in.BW > 0 {
			st[in.B] &= mask(in.BW)
		}
		if in.Op == CMux {
			st[in.C] &= mask(in.BW)
		}
	}
}

// TestFusionRuleCoverage sweeps the full generated FuseRule enumeration:
// every rule must have at least one exemplar window, the declared arity must
// match the exemplar, the generated matcher must classify each exemplar as
// its rule (a generic exemplar may go to a specialized pair rule the table
// lists first), and the window must compile to exactly one kernel that
// leaves the state image bit-identical to executing the window's
// instructions back to back — over randomized operand values, including the
// aliasing corners the store-in-order design must survive.
func TestFusionRuleCoverage(t *testing.T) {
	cases := fusionExemplars()
	seen := make(map[FuseRule]bool)
	for _, c := range cases {
		seen[c.rule] = true
	}
	for r := FuseRuleNone + 1; r < NumFuseRules; r++ {
		if !seen[r] {
			t.Fatalf("fusion rule %d (%s) has no exemplar — extend fusionExemplars", r, r)
		}
		if r.Pattern() == "" {
			t.Fatalf("fusion rule %s has no pattern string", r)
		}
	}

	rng := rand.New(rand.NewSource(7))
	for _, c := range cases {
		if got := c.rule.Arity(); got != len(c.ins) {
			t.Fatalf("%s: rule %s declares arity %d, exemplar has %d instructions", c.name, c.rule, got, len(c.ins))
		}
		got := FuseRuleNone
		switch len(c.ins) {
		case 2:
			got = matchFuse2(c.ins[0], c.ins[1])
		case 3:
			got = matchFuse3(c.ins[0], c.ins[1], c.ins[2])
		}
		specialized := got != FuseRuleNone && !strings.HasPrefix(got.Pattern(), "(pure)")
		if got != c.rule && !(c.earlierOK && specialized && got < c.rule) {
			t.Fatalf("%s: matched %s, want %s", c.name, got, c.rule)
		}
		p := &Program{NumWords: 13, Instrs: c.ins,
			Mems: []MemSpec{{Depth: 4, Width: 8, WordsPer: 1, Init: []uint64{0x5a, 9, 0xab, 3}}}}
		bnd := NewMachine(p)
		s := NewStream(p, Fused)
		chain := s.Append(p.Instrs)
		if k, _, _ := s.Footprint(); k != 1 {
			t.Fatalf("%s: the window compiled to %d kernels, want 1 fused", c.name, k)
		}
		if stats := FusionStats(c.ins); stats[got] != 1 {
			t.Fatalf("%s: FusionStats counted %d windows for %s, want 1", c.name, stats[got], got)
		}
		for trial := 0; trial < 200; trial++ {
			ref := NewMachine(p)
			for w := range ref.State {
				ref.State[w] = rng.Uint64()
			}
			maskOperands(ref.State, c.ins...)
			copy(bnd.State, ref.State)
			ref.Exec(0, int32(len(c.ins)))
			s.Run(bnd, chain)
			for w := range ref.State {
				if ref.State[w] != bnd.State[w] {
					t.Fatalf("%s trial %d: state word %d: sequential %#x vs fused kernel %#x",
						c.name, trial, w, ref.State[w], bnd.State[w])
				}
			}
		}
	}
}

// TestMatchFusionRejects pins the negative space: windows that look close to
// a rule but must not fuse.
func TestMatchFusionRejects(t *testing.T) {
	add := Instr{Op: CAdd, D: 10, DW: 17, A: 0, AW: 16, B: 1, BW: 16}
	cases := []struct {
		name string
		a, b Instr
	}{
		{"no-dataflow", // xor dest feeds nothing in the mux
			Instr{Op: CXor, D: 10, DW: 16, A: 0, AW: 16, B: 1, BW: 16},
			Instr{Op: CMux, D: 11, DW: 16, A: 1, AW: 1, B: 2, BW: 16, C: 3}},
		{"wide-first",
			Instr{Op: CXor, D: 10, DW: 80, A: 0, AW: 80, B: 1, BW: 80},
			Instr{Op: CMux, D: 11, DW: 16, A: 1, AW: 1, B: 10, BW: 16, C: 2}},
		{"wide-second", add,
			Instr{Op: CCopy, D: 11, DW: 80, A: 10, AW: 80}},
		{"memread-producer", // not a pure value producer
			Instr{Op: CMemRead, D: 10, DW: 8, A: 0, AW: 4, Lo: 0},
			Instr{Op: CCopy, D: 11, DW: 8, A: 10, AW: 8}},
		{"orr-after-or", // no rule has an or-reduction consumer
			Instr{Op: COr, D: 10, DW: 16, A: 0, AW: 16, B: 1, BW: 16},
			Instr{Op: COrR, D: 11, DW: 1, A: 10, AW: 16}},
		{"copy-into-mux", // copy's value row is not marked Inline
			Instr{Op: CCopy, D: 10, DW: 16, A: 0, AW: 20},
			Instr{Op: CMux, D: 11, DW: 16, A: 1, AW: 1, B: 2, BW: 16, C: 10}},
		{"non-inline-producer", // shl's value row is not marked Inline
			Instr{Op: CShl, D: 10, DW: 20, A: 0, AW: 16, Lo: 4},
			Instr{Op: CCopy, D: 11, DW: 18, A: 10, AW: 20}},
		{"non-inline-slt", // nor is a signed compare's
			Instr{Op: CSLt, D: 10, DW: 1, A: 0, AW: 12, B: 1, BW: 9},
			Instr{Op: CXor, D: 11, DW: 1, A: 10, AW: 1, B: 2, BW: 1}},
	}
	for _, c := range cases {
		if got := matchFuse2(c.a, c.b); got != FuseRuleNone {
			t.Fatalf("%s: matchFuse2 = %s, want none", c.name, got)
		}
	}
	triples := []struct {
		name    string
		a, b, c Instr
	}{
		{"mux-chain-middle-break", // second mux doesn't read the first
			Instr{Op: CMux, D: 10, DW: 16, A: 0, AW: 1, B: 1, BW: 16, C: 2},
			Instr{Op: CMux, D: 11, DW: 16, A: 3, AW: 1, B: 4, BW: 16, C: 5},
			Instr{Op: CMux, D: 12, DW: 16, A: 6, AW: 1, B: 11, BW: 16, C: 7}},
		{"mux-chain-sel-only-feed", // third mux reads the second only via its selector
			Instr{Op: CMux, D: 10, DW: 16, A: 0, AW: 1, B: 1, BW: 16, C: 2},
			Instr{Op: CMux, D: 11, DW: 1, A: 3, AW: 1, B: 10, BW: 1, C: 4},
			Instr{Op: CMux, D: 12, DW: 16, A: 11, AW: 1, B: 5, BW: 16, C: 6}},
		{"mux-chain-wide-tail",
			Instr{Op: CMux, D: 10, DW: 16, A: 0, AW: 1, B: 1, BW: 16, C: 2},
			Instr{Op: CMux, D: 11, DW: 16, A: 3, AW: 1, B: 10, BW: 16, C: 4},
			Instr{Op: CMux, D: 12, DW: 80, A: 5, AW: 1, B: 11, BW: 80, C: 6}},
		{"bits-and-mux-arm-only", // the and result reaches the mux through no slot
			Instr{Op: CBits, D: 10, DW: 1, A: 0, AW: 20, Hi: 5, Lo: 5},
			Instr{Op: CAnd, D: 11, DW: 1, A: 10, AW: 1, B: 1, BW: 1},
			Instr{Op: CMux, D: 12, DW: 16, A: 10, AW: 1, B: 2, BW: 16, C: 3}},
	}
	for _, c := range triples {
		if got := matchFuse3(c.a, c.b, c.c); got != FuseRuleNone {
			t.Fatalf("%s: matchFuse3 = %s, want none", c.name, got)
		}
	}
}

// widthClassExpectation is the per-opcode classification at a representative
// 2-word shape. TestWidthClassCoverage sweeps the full opcode enumeration
// against it, so a new opcode cannot land without declaring (and, for
// WC2Word, exercising) its width class.
var widthClassExpectation = map[OpCode]WidthClass{
	CCopy: WC2Word, CAdd: WC2Word, CSub: WC2Word, CAnd: WC2Word, COr: WC2Word,
	CXor: WC2Word, CNot: WC2Word, CMux: WC2Word, CEq: WC2Word, CNeq: WC2Word,
	CMul: WCWide, CDiv: WCWide, CRem: WCWide, CNeg: WCWide,
	CAndR: WCWide, COrR: WCWide, CXorR: WCWide,
	CLt: WCWide, CLeq: WCWide, CGt: WCWide, CGeq: WCWide,
	CSLt: WCWide, CSLeq: WCWide, CSGt: WCWide, CSGeq: WCWide,
	CShl: WCWide, CShr: WCWide, CDshl: WCWide, CDshr: WCWide,
	CCat: WCWide, CBits: WCWide, CSExt: WCWide, CMemRead: WCWide,
}

// instr2W builds the representative 2-word-shape instruction for an opcode.
func instr2W(op OpCode, dw, aw, bw int32) Instr {
	in := Instr{Op: op, D: 12, DW: dw, A: 0, AW: aw, B: 4, BW: bw}
	if op == CMux {
		in.A, in.AW = 8, 1 // one-word selector
		in.B, in.BW = 0, aw
		in.C = 4
	}
	if op == CEq || op == CNeq {
		in.DW = 1
	}
	return in
}

// TestWidthClassCoverage sweeps every opcode through the width classifier at
// a 96-bit shape and pins the expected class; narrow shapes must classify
// WCNarrow for every opcode. A missing map entry is a failure, so the opcode
// and width-class enumerations stay covered together.
func TestWidthClassCoverage(t *testing.T) {
	for op := CCopy; op < OpCode(numOpCodes); op++ {
		want, ok := widthClassExpectation[op]
		if !ok {
			t.Fatalf("opcode %d has no width-class expectation — extend widthClassExpectation", op)
		}
		if got := classOf(instr2W(op, 96, 96, 96)); got != want {
			t.Fatalf("opcode %d at 96 bits: class %s, want %s", op, got, want)
		}
		narrow := Instr{Op: op, DW: 8, AW: 8, BW: 8}
		if got := classOf(narrow); got != WCNarrow {
			t.Fatalf("opcode %d at 8 bits: class %s, want narrow", op, got)
		}
	}
}

// TestWidthClass2WordMatchesWide executes every 2-word kernel against the
// execWide reference over randomized canonical state, across width shapes
// that exercise zero extension (one-word operands into two-word results),
// truncation (wider-than-class operands), and the top-word mask.
func TestWidthClass2WordMatchesWide(t *testing.T) {
	shapes := []struct{ dw, aw, bw int32 }{
		{96, 96, 96}, {128, 128, 128}, {65, 65, 65},
		{96, 40, 96}, {96, 96, 40}, {70, 64, 70}, {128, 1, 128},
	}
	eqShapes := []struct{ dw, aw, bw int32 }{
		{1, 96, 96}, {1, 65, 128}, {1, 96, 20}, {1, 20, 96}, {1, 128, 128},
	}
	rng := rand.New(rand.NewSource(11))
	for op, class := range widthClassExpectation {
		if class != WC2Word {
			continue
		}
		sh := shapes
		if op == CEq || op == CNeq {
			sh = eqShapes
		}
		for _, s := range sh {
			in := instr2W(op, s.dw, s.aw, s.bw)
			if classOf(in) != WC2Word {
				t.Fatalf("op %d shape %+v: expected 2-word class", op, s)
			}
			for trial := 0; trial < 100; trial++ {
				p := &Program{NumWords: 16}
				ref := NewMachine(p)
				bnd := NewMachine(p)
				stream := NewStream(p, Fused)
				chain := stream.Append([]Instr{in})
				if k, recs, _ := stream.Footprint(); k != 1 || recs != 1 {
					t.Fatalf("op %d shape %+v: %d kernels over %d records, want the 2-word kernel's one record", op, s, k, recs)
				}
				for w := range ref.State {
					ref.State[w] = rng.Uint64()
				}
				// Canonicalize the operand slots to their widths.
				operands := []struct {
					off int32
					w   int32
				}{{in.A, in.AW}, {in.B, in.BW}}
				if in.Op == CMux {
					operands = append(operands, struct {
						off int32
						w   int32
					}{in.C, in.BW})
				}
				for _, o := range operands {
					words := wordsFor32(o.w)
					if words == 0 {
						continue
					}
					ref.State[o.off+words-1] &= bitvec.TopMask(int(o.w))
				}
				copy(bnd.State, ref.State)
				wide := in
				ref.execWide(&wide)
				stream.Run(bnd, chain)
				for w := range ref.State {
					if ref.State[w] != bnd.State[w] {
						t.Fatalf("op %d shape %+v trial %d: state word %d: execWide %#x vs 2-word kernel %#x",
							op, s, trial, w, ref.State[w], bnd.State[w])
					}
				}
			}
		}
	}
}
