// Package rules is the declarative source of truth for the kernel
// compiler's rewrite rules and narrow opcode semantics: the per-opcode value
// table the stream kernels are built from, the superinstruction fusion
// patterns applied by emit.Stream, and the algebraic
// simplification rules applied by the passes pipeline before partitioning.
// cmd/rulegen compiles the tables into Go (emit/fuse_gen.go and
// passes/simplify_gen.go) — the same shape sneller uses for its SSA
// simplifier: rules as data, matchers as generated code, so adding a pattern
// is one table line plus `go generate`, not another arm of a hand-written
// dispatch wall.
//
// # Value rows
//
// ValueRows states each pure narrow opcode's result once, as a Go
// expression. The generator turns every row into the opcode's
// single-instruction kernel, and the rows of a fusion window's opcodes into
// that window's kernel; the rows marked Inline are the generic rules'
// producer class, so the matcher's class and the kernels come from the same
// rows and cannot disagree.
//
// # Fusion rules
//
// A fusion rule matches a window of two or three adjacent instructions of a
// compiled chain (execution order, left to right):
//
//	(mux _ _ _) >> (mux _ t? t?)
//
// Each parenthesized group is one instruction: an opcode name, an opcode
// class (cmp, mask, logic, eqz — see opcodeClass — or pure, the value rows
// marked Inline), and one operand spec per operand slot (A, B, C in order):
//
//	_   any slot value
//	t   the slot must read the previous instruction's destination
//	t?  may-feed: at least one t?-marked slot must read it
//
// Only fully narrow windows fuse (the generated matchers check that first);
// rule order is match priority. An optional Guard is a raw Go expression
// over the matched instructions a, b (and c for triples). A rule needs no
// code of its own: every opcode tuple its pattern admits gets one generated
// kernel, a static function that stores each stage's value row in window
// order — a later stage re-reads a fed operand from the state image after
// the earlier store, so one kernel serves every feed shape.
//
// # Simplify rules
//
// A simplify rule is a pattern over ir expression trees, an optional Go
// guard, and a rewrite template:
//
//	{Name: "and-zero", Pat: "(and x 0)", To: "0", Comm: true}
//
// Pattern atoms: lowercase metavariables bind any subexpression (a repeated
// metavariable requires structural equality); names starting with k bind
// only constants; the literals 0, 1, and ones match constants of that value
// without binding. Guards are Go expressions over the bound metavariables
// plus e (the root expression); templates are metavariables, 0/1 (a constant
// of the root's width), or operator applications over bound metavariables.
// Comm additionally matches the rule with the root's two operands swapped.
// The generated rewriter tries rules in table order, first match wins; the
// caller re-fits the result to the original width.
package rules

//go:generate go run gsim/cmd/rulegen

// ValueRow declares the single-word semantics of one pure opcode (every
// opcode but memread). Val is a Go expression for the result, already
// masked to DW, over the operand words *pa, *pb, *pc (slots A, B, C) and
// these values of the instruction's operand record: dm = mask(DW),
// am = mask(AW), aw = AW and bw = BW (the widths sext64 takes),
// sh = Lo (a static shift or bits offset) and cs = BW (a cat's shift).
// Inline puts the opcode in the pure producer class of the generic fusion
// rules; mark a row only when gsim-diag shows it firing as a generic
// producer on a real design, since every inline row adds one kernel per
// generic consumer.
type ValueRow struct {
	Op     string // opcode name
	Val    string // Go value expression
	Inline bool   // a producer of the generic (pure) >> … rules
}

// FuseRule declares one superinstruction fusion rule.
type FuseRule struct {
	Name  string // kebab-case rule id; generates the emit.FuseRule constant
	Pat   string // instruction-window pattern, stages joined by >>
	Guard string // optional extra Go condition over a, b (, c)
}

// SimplifyRule declares one algebraic rewrite over ir expression trees.
type SimplifyRule struct {
	Name  string // kebab-case rule id; generates the passes.AlgRule constant
	Pat   string // s-expression pattern over ir operators
	Guard string // optional Go condition over bound metavariables and e
	To    string // rewrite template
	Comm  bool   // also match with the root's operands swapped
}

// ValueRows returns the value table, one row per pure opcode in enum order.
// The conditional results go through small helpers in package emit that
// the Go compiler inlines: divz/remz (0 on a zero divisor) and pick (mux).
// Dynamic shifts need no guard: Go defines a uint64 shifted by 64 or more
// as 0, which is the IR's semantics. The Inline rows are exactly the
// producers gsim-diag saw fire a generic rule, with every row marked, on
// the stucore build, rocket-like, the RV32 core and testdata/*.fir, over
// both the GSIM supernode chains and the full-cycle stream.
func ValueRows() []ValueRow {
	return []ValueRow{
		{Op: "copy", Val: "*pa & dm"},
		{Op: "add", Val: "(*pa + *pb) & dm"},
		{Op: "sub", Val: "(*pa - *pb) & dm"},
		{Op: "mul", Val: "(*pa * *pb) & dm", Inline: true},
		{Op: "div", Val: "divz(*pa, *pb) & dm"},
		{Op: "rem", Val: "remz(*pa, *pb) & dm"},
		{Op: "neg", Val: "-*pa & dm"},
		{Op: "and", Val: "*pa & *pb & dm"},
		{Op: "or", Val: "(*pa | *pb) & dm", Inline: true},
		{Op: "xor", Val: "(*pa ^ *pb) & dm", Inline: true},
		{Op: "not", Val: "^*pa & dm", Inline: true},
		{Op: "andr", Val: "b2u(*pa == am)"},
		{Op: "orr", Val: "b2u(*pa != 0)", Inline: true},
		{Op: "xorr", Val: "uint64(bits.OnesCount64(*pa)) & 1"},
		{Op: "eq", Val: "b2u(*pa == *pb)"},
		{Op: "neq", Val: "b2u(*pa != *pb)"},
		{Op: "lt", Val: "b2u(*pa < *pb)", Inline: true},
		{Op: "leq", Val: "b2u(*pa <= *pb)"},
		{Op: "gt", Val: "b2u(*pa > *pb)"},
		{Op: "geq", Val: "b2u(*pa >= *pb)"},
		{Op: "slt", Val: "b2u(sext64(*pa, aw) < sext64(*pb, bw))"},
		{Op: "sleq", Val: "b2u(sext64(*pa, aw) <= sext64(*pb, bw))"},
		{Op: "sgt", Val: "b2u(sext64(*pa, aw) > sext64(*pb, bw))"},
		{Op: "sgeq", Val: "b2u(sext64(*pa, aw) >= sext64(*pb, bw))"},
		{Op: "shl", Val: "(*pa << sh) & dm"},
		{Op: "shr", Val: "(*pa >> sh) & dm", Inline: true},
		{Op: "dshl", Val: "(*pa << *pb) & dm", Inline: true},
		{Op: "dshr", Val: "(*pa >> *pb) & dm"},
		{Op: "cat", Val: "(*pa<<cs | *pb) & dm", Inline: true},
		{Op: "bits", Val: "(*pa >> sh) & dm", Inline: true},
		{Op: "sext", Val: "uint64(sext64(*pa, aw)) & dm"},
		{Op: "mux", Val: "pick(*pa, *pb, *pc) & dm", Inline: true},
	}
}

// FusionRules returns the fusion rule table in match-priority order: the
// two-instruction rules, then the three-instruction families.
// The fusion walk tries triples before pairs at each chain position.
func FusionRules() []FuseRule {
	return []FuseRule{
		// Pairs. The generic (pure) rules take any inline producer.
		{Name: "cmp-mux", Pat: "(cmp _ _) >> (mux t _ _)"},
		{Name: "mux-mux", Pat: "(mux _ _ _) >> (mux _ t? t?)"},
		{Name: "alu-mux", Pat: "(pure) >> (mux t? t? t?)"},
		{Name: "add-mask", Pat: "(add _ _) >> (mask t)"},
		{Name: "sub-mask", Pat: "(sub _ _) >> (mask t)"},
		{Name: "alu-mask", Pat: "(pure) >> (mask t)"},
		{Name: "alu-cat", Pat: "(pure) >> (cat t? t?)"},
		{Name: "alu-logic", Pat: "(pure) >> (logic t? t?)"},
		{Name: "alu-eq", Pat: "(pure) >> (eqz t? t?)"},
		{Name: "alu-memread", Pat: "(pure) >> (memread t)"},
		// Triples: the priority-encoder chains that dominate control logic
		// compile to runs of adjacent muxes, register write enables to a bit
		// test gated into a mux select; one kernel per window removes two
		// dispatches instead of one.
		{Name: "mux-mux-mux", Pat: "(mux _ _ _) >> (mux _ t? t?) >> (mux _ t? t?)"},
		{Name: "bits-and-mux", Pat: "(bits _) >> (and t? t?) >> (mux t? t? t?)"},
	}
}

// SimplifyRules returns the algebraic rule table. Rules sharing a root
// operator are tried in table order; keep the constant-select mux rules
// before the structural mux rules, and the self-compare rules before the
// compare-with-zero rules, so the cheaper rewrite wins.
func SimplifyRules() []SimplifyRule {
	return []SimplifyRule{
		{Name: "add-zero", Pat: "(add x 0)", To: "x", Comm: true},
		{Name: "sub-zero", Pat: "(sub x 0)", To: "x"},
		{Name: "sub-self", Pat: "(sub x x)", To: "0"},
		{Name: "mul-zero", Pat: "(mul x 0)", To: "0", Comm: true},
		{Name: "mul-one", Pat: "(mul x 1)", To: "x", Comm: true},
		{Name: "div-one", Pat: "(div x 1)", To: "x"},
		{Name: "rem-one", Pat: "(rem x 1)", To: "0"},
		{Name: "and-zero", Pat: "(and x 0)", To: "0", Comm: true},
		// The mask must cover x completely, or the and still truncates.
		{Name: "and-ones", Pat: "(and x k)", Guard: "isOnes(k) && k.Width >= x.Width", To: "x", Comm: true},
		{Name: "and-self", Pat: "(and x x)", To: "x"},
		{Name: "or-zero", Pat: "(or x 0)", To: "x", Comm: true},
		{Name: "or-self", Pat: "(or x x)", To: "x"},
		{Name: "xor-zero", Pat: "(xor x 0)", To: "x", Comm: true},
		{Name: "xor-self", Pat: "(xor x x)", To: "0"},
		{Name: "not-not", Pat: "(not (not x))", To: "x"},
		{Name: "andr-bool", Pat: "(andr x)", Guard: "x.Width == 1", To: "x"},
		{Name: "orr-bool", Pat: "(orr x)", Guard: "x.Width == 1", To: "x"},
		{Name: "xorr-bool", Pat: "(xorr x)", Guard: "x.Width == 1", To: "x"},
		{Name: "eq-self", Pat: "(eq x x)", To: "1"},
		{Name: "neq-self", Pat: "(neq x x)", To: "0"},
		// x != 0 is the or-reduction; saves the constant operand slot.
		{Name: "neq-zero", Pat: "(neq x 0)", To: "(orr x)", Comm: true},
		// Unsigned compare against zero folds to a constant or a reduction.
		{Name: "lt-self", Pat: "(lt x x)", To: "0"},
		{Name: "lt-zero", Pat: "(lt x 0)", To: "0"},
		{Name: "zero-lt", Pat: "(lt 0 x)", To: "(orr x)"},
		{Name: "gt-self", Pat: "(gt x x)", To: "0"},
		{Name: "gt-zero", Pat: "(gt x 0)", To: "(orr x)"},
		{Name: "zero-gt", Pat: "(gt 0 x)", To: "0"},
		{Name: "leq-self", Pat: "(leq x x)", To: "1"},
		{Name: "leq-zero", Pat: "(leq x 0)", To: "(not (orr x))"},
		{Name: "zero-leq", Pat: "(leq 0 x)", To: "1"},
		{Name: "geq-self", Pat: "(geq x x)", To: "1"},
		{Name: "geq-zero", Pat: "(geq x 0)", To: "1"},
		{Name: "zero-geq", Pat: "(geq 0 x)", To: "(not (orr x))"},
		{Name: "mux-sel-zero", Pat: "(mux k x y)", Guard: "isZero(k)", To: "y"},
		{Name: "mux-sel-one", Pat: "(mux k x y)", Guard: "!isZero(k)", To: "x"},
		{Name: "mux-same", Pat: "(mux s x x)", To: "x"},
		{Name: "mux-bool", Pat: "(mux s 1 0)", Guard: "e.Width == 1", To: "s"},
		{Name: "mux-bool-not", Pat: "(mux s 0 1)", Guard: "e.Width == 1", To: "(not s)"},
	}
}
