package rules

import (
	"fmt"
	"go/format"
	"regexp"
	"slices"
	"strings"
)

// header is the marker the Go toolchain recognizes as generated code; both
// output files start with it so reviewers and lint skip them. Keep the text
// free of anything nondeterministic — CI regenerates and diffs.
const header = `// Code generated by rulegen from internal/emit/rules; DO NOT EDIT.
// Regenerate with: go generate ./internal/emit/...

`

// parsed is one fusion rule with its pattern parsed.
type parsed struct {
	FuseRule
	goName string
	stages []fuseStage
}

// GenerateFuse renders the value table and the fusion rule table into the
// source of internal/emit/fuse_gen.go: the FuseRule enumeration, the opcode
// names, the matchFuse2 and matchFuse3 structural matchers, the
// compileFuse2/compileFuse3 constructor dispatch, the inline producer class,
// the single-instruction narrow kernels and the generic rules'
// constructors. Output is gofmt-formatted and deterministic.
func GenerateFuse() ([]byte, error) {
	if err := Validate(); err != nil {
		return nil, err
	}
	var all []parsed
	for _, r := range FusionRules() {
		st, err := parseFusePat(r.Pat)
		if err != nil {
			return nil, err
		}
		all = append(all, parsed{r, goName(r.Name), st})
	}

	var sb strings.Builder
	sb.WriteString(header)
	sb.WriteString("package emit\n\nimport \"math/bits\"\n\n")
	sb.WriteString(`// FuseRule identifies one fusion rule of the declarative table in
// internal/emit/rules. FuseRuleNone means no rule matches; NumFuseRules is
// the enumeration sentinel — diagnostics and the coverage tests sweep
// [FuseRuleNone+1, NumFuseRules).
type FuseRule uint8

`)
	sb.WriteString("const (\n\tFuseRuleNone FuseRule = iota\n")
	for _, p := range all {
		fmt.Fprintf(&sb, "\t// FuseRule%s: %s\n\tFuseRule%s\n", p.goName, p.Pat, p.goName)
	}
	sb.WriteString("\n\tNumFuseRules\n)\n\n")

	sb.WriteString("var fuseRuleNames = [NumFuseRules]string{\n\t\"none\",\n")
	for _, p := range all {
		fmt.Fprintf(&sb, "\t%q,\n", p.Name)
	}
	sb.WriteString("}\n\n")
	sb.WriteString("var fuseRulePatterns = [NumFuseRules]string{\n\t\"\",\n")
	for _, p := range all {
		fmt.Fprintf(&sb, "\t%q,\n", p.Pat)
	}
	sb.WriteString("}\n\n")
	sb.WriteString("var fuseRuleArities = [NumFuseRules]uint8{\n\t0,\n")
	for _, p := range all {
		fmt.Fprintf(&sb, "\t%d,\n", len(p.stages))
	}
	sb.WriteString("}\n\n")

	sb.WriteString(`// String names the rule as declared in the rule table.
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

`)
	rows := ValueRows()
	sb.WriteString("var opcodeNames = [cOpCount]string{\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "\t%s: %q,\n", opcodeConst[r.Op], r.Op)
	}
	sb.WriteString("\tCMemRead: \"memread\",\n}\n\n")
	sb.WriteString(`// String names the opcode as the rule tables spell it.
func (op OpCode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return "invalid"
}

`)

	vars := []string{"a", "b", "c"}
	for _, arity := range []int{2, 3} {
		var group []parsed
		for _, p := range all {
			if len(p.stages) == arity {
				group = append(group, p)
			}
		}
		fn := fmt.Sprintf("matchFuse%d", arity)
		fmt.Fprintf(&sb, "// %s classifies an adjacent %d-instruction window (%s executes\n", fn, arity, vars[0])
		fmt.Fprintf(&sb, "// first). Only fully narrow windows fuse; matching is purely structural —\n")
		fmt.Fprintf(&sb, "// opcodes and destination-slot identity — so it is valid on any chain.\n")
		fmt.Fprintf(&sb, "func %s(%s Instr) FuseRule {\n", fn, strings.Join(vars[:arity], ", ")+" ")
		var narrowChecks []string
		for _, v := range vars[:arity] {
			narrowChecks = append(narrowChecks, "!narrow("+v+")")
		}
		fmt.Fprintf(&sb, "\tif %s {\n\t\treturn FuseRuleNone\n\t}\n", strings.Join(narrowChecks, " || "))
		usesPure := false
		for _, p := range group {
			for _, st := range p.stages {
				if st.op == "pure" {
					usesPure = true
				}
			}
		}
		if usesPure {
			sb.WriteString("\tpure := InlineProducer(a.Op)\n")
		}
		// Group rules by the window's final (consumer) instruction, keeping
		// first-appearance order; the consumer becomes the switch case.
		caseKey := func(p parsed) string {
			return strings.Join(caseOps(p.stages[arity-1].op), ", ")
		}
		var order []string
		byCase := map[string][]parsed{}
		for _, p := range group {
			k := caseKey(p)
			if _, ok := byCase[k]; !ok {
				order = append(order, k)
			}
			byCase[k] = append(byCase[k], p)
		}
		fmt.Fprintf(&sb, "\tswitch %s.Op {\n", vars[arity-1])
		for _, k := range order {
			fmt.Fprintf(&sb, "\tcase %s:\n", k)
			for _, p := range byCase[k] {
				fmt.Fprintf(&sb, "\t\t// %s: %s\n", p.Name, p.Pat)
				fmt.Fprintf(&sb, "\t\tif %s {\n\t\t\treturn FuseRule%s\n\t\t}\n",
					strings.Join(windowConds(p.stages, p.Guard, vars), " && "), p.goName)
			}
		}
		sb.WriteString("\t}\n\treturn FuseRuleNone\n}\n\n")

		cfn := fmt.Sprintf("compileFuse%d", arity)
		fmt.Fprintf(&sb, "// %s dispatches a matched %d-instruction window to its rule's\n", cfn, arity)
		fmt.Fprintf(&sb, "// bound-closure constructor.\n")
		fmt.Fprintf(&sb, "func %s(m *Machine, %s Instr, r FuseRule) BoundFn {\n",
			cfn, strings.Join(vars[:arity], ", ")+" ")
		sb.WriteString("\tswitch r {\n")
		for _, p := range group {
			fmt.Fprintf(&sb, "\tcase FuseRule%s:\n\t\treturn %s(m, %s)\n",
				p.goName, p.Emit, strings.Join(vars[:arity], ", "))
		}
		sb.WriteString("\t}\n")
		fmt.Fprintf(&sb, "\tpanic(\"emit: %s: no constructor for rule \" + r.String())\n}\n\n", cfn)
	}

	var inline []string
	for _, r := range rows {
		if r.Inline {
			inline = append(inline, opcodeConst[r.Op])
		}
	}
	sb.WriteString(`// InlineProducer reports whether op's value row is marked Inline: the pure
// producer class of the generic fusion rules, whose constructors inline
// exactly these rows.
func InlineProducer(op OpCode) bool {
`)
	if len(inline) > 0 {
		fmt.Fprintf(&sb, "\tswitch op {\n\tcase %s:\n\t\treturn true\n\t}\n", strings.Join(inline, ", "))
	}
	sb.WriteString("\treturn false\n}\n\n")

	sb.WriteString(`// compilePureBound builds the single-instruction narrow kernel of a pure
// opcode, its value row stored to D; nil for an opcode without a row.
func compilePureBound(st []uint64, in Instr) BoundFn {
	pd := &st[in.D]
	switch in.Op {
`)
	for _, r := range rows {
		expr, decls := boundValue(r.Val, "in", nil)
		fmt.Fprintf(&sb, "\tcase %s:\n\t\t%s\n\t\treturn func() { *pd = %s }\n", opcodeConst[r.Op], declLine(decls), expr)
	}
	sb.WriteString("\t}\n\treturn nil\n}\n\n")

	for i, p := range all {
		if p.stages[0].op == "pure" {
			if err := writeGeneric(&sb, all, i, rows); err != nil {
				return nil, err
			}
		}
	}
	return format.Source([]byte(sb.String()))
}

// valueIdent matches the identifiers a value row may use; valueDef gives
// each one's build-time definition from instruction X (see ValueRow).
var valueIdent = regexp.MustCompile(`\b(pa|pb|pc|dm|am|aw|bw|sh|cs)\b`)

var valueDef = map[string]string{
	"pa": "&st[X.A]", "pb": "&st[X.B]", "pc": "&st[X.C]", "dm": "mask(X.DW)",
	"am": "mask(X.AW)", "aw": "X.AW", "bw": "X.BW", "sh": "uint(X.Lo)", "cs": "uint(X.BW)",
}

// memReadValue and memReadDecl stand in for the value row memread does not
// have (its value needs the machine's memory array), so it can still be a
// generic rule's consumer.
const (
	memReadValue = "readMem(mem, *pa, depth, wp) & dm"
	memReadDecl  = "mem, depth, wp := memPort(m, b.Lo)"
)

// decl is one build-time variable of a generated closure.
type decl struct{ name, def string }

// boundValue instantiates value expression val for instruction variable x.
// The consumer of a pair (x == "b") has its identifiers renamed (pa → pba,
// dm → bdm, …) so they cannot collide with the producer's, and each operand
// slot listed in fed reads t, the producer's value, instead of its state
// word. It returns the expression and the declarations of the identifiers
// it uses, in first-use order.
func boundValue(val, x string, fed []int) (string, []decl) {
	for _, j := range fed {
		val = strings.ReplaceAll(val, "*p"+"abc"[j:j+1], "t")
	}
	var decls []decl
	seen := map[string]bool{}
	expr := valueIdent.ReplaceAllStringFunc(val, func(id string) string {
		name := id
		if x == "b" && id[0] == 'p' {
			name = "pb" + id[1:]
		} else if x == "b" {
			name = "b" + id
		}
		if !seen[name] {
			seen[name] = true
			decls = append(decls, decl{name, strings.ReplaceAll(valueDef[id], "X", x)})
		}
		return name
	})
	return expr, decls
}

// declLine renders declarations as one multi-assignment.
func declLine(decls []decl) string {
	names, defs := make([]string, len(decls)), make([]string, len(decls))
	for i, d := range decls {
		names[i], defs[i] = d.name, d.def
	}
	return strings.Join(names, ", ") + " := " + strings.Join(defs, ", ")
}

// writeGeneric renders the constructor of generic rule all[i]: a build-time
// switch on the producer over the inline rows (then on the consumer opcode,
// for a class), every case returning one closure that computes the
// producer's value into t, stores it, then stores the consumer's value. A
// producer an earlier rule always claims with the same consumer stage gets
// no case.
func writeGeneric(sb *strings.Builder, all []parsed, i int, rows []ValueRow) error {
	g, cons := all[i], all[i].stages[1]
	var fed []int
	for j, a := range cons.args {
		if a == "t" {
			fed = append(fed, j)
		}
	}
	type tail struct{ op, expr string }
	var tails []tail
	var cdecls []decl
	memRead := false
	for _, op := range classMembers(cons.op) {
		val := memReadValue
		if op != "memread" {
			r := slices.IndexFunc(rows, func(r ValueRow) bool { return r.Op == op })
			if r < 0 {
				return fmt.Errorf("fusion rule %q: consumer %s has no value row", g.Name, op)
			}
			val = rows[r].Val
		}
		memRead = memRead || op == "memread"
		expr, decls := boundValue(val, "b", fed)
		tails = append(tails, tail{opcodeConst[op], expr})
		for _, d := range decls {
			if !slices.Contains(cdecls, d) {
				cdecls = append(cdecls, d)
			}
		}
	}
	fmt.Fprintf(sb, "// %s compiles %s, %s: one closure per\n// inline producer and consumer opcode, both value rows inlined.\n", g.Emit, g.Name, g.Pat)
	fmt.Fprintf(sb, "func %s(m *Machine, a, b Instr) BoundFn {\n\tst := m.State\n\tpad, pbd := &st[a.D], &st[b.D]\n\t%s\n", g.Emit, declLine(cdecls))
	if memRead {
		fmt.Fprintf(sb, "\t%s\n", memReadDecl)
	}
	sb.WriteString("\tswitch a.Op {\n")
	for _, r := range rows {
		if !r.Inline || claimedBefore(all[:i], cons, r.Op) {
			continue
		}
		expr, decls := boundValue(r.Val, "a", nil)
		fmt.Fprintf(sb, "\tcase %s:\n\t\t%s\n", opcodeConst[r.Op], declLine(decls))
		closure := func(t tail) string {
			return fmt.Sprintf("return func() { t := %s; *pad = t; *pbd = %s }", expr, t.expr)
		}
		if len(tails) == 1 {
			fmt.Fprintf(sb, "\t\t%s\n", closure(tails[0]))
			continue
		}
		sb.WriteString("\t\tswitch b.Op {\n")
		for _, t := range tails {
			fmt.Fprintf(sb, "\t\tcase %s:\n\t\t\t%s\n", t.op, closure(t))
		}
		sb.WriteString("\t\t}\n")
	}
	fmt.Fprintf(sb, "\t}\n\tpanic(\"emit: %s: producer \" + a.Op.String() + \" is not inline\")\n}\n\n", g.Emit)
	return nil
}

// claimedBefore reports whether an earlier, unguarded pair rule with
// consumer stage cons names producer op: it always matches first, so the
// generic rule never sees op.
func claimedBefore(earlier []parsed, cons fuseStage, op string) bool {
	for _, r := range earlier {
		if len(r.stages) == 2 && r.Guard == "" && r.stages[1].op == cons.op &&
			slices.Equal(r.stages[1].args, cons.args) && slices.Contains(classMembers(r.stages[0].op), op) {
			return true
		}
	}
	return false
}

// classMembers expands an opcode or class name to its opcode names.
func classMembers(op string) []string {
	if members, ok := opcodeClass[op]; ok {
		return members
	}
	return []string{op}
}

// caseOps expands a consumer opcode or class name to its switch-case
// constants.
func caseOps(op string) []string {
	members := classMembers(op)
	consts := make([]string, len(members))
	for i, m := range members {
		consts[i] = opcodeConst[m]
	}
	return consts
}

// windowConds renders one rule's match condition: each non-final stage's
// opcode test, every stage's feed constraints against its predecessor, and
// the optional guard.
func windowConds(stages []fuseStage, guard string, vars []string) []string {
	var conds []string
	slots := []string{".A", ".B", ".C"}
	for i, st := range stages {
		v := vars[i]
		if i < len(stages)-1 { // final stage's opcode is the switch case
			conds = append(conds, stageOpCond(v, st.op))
		}
		if i == 0 {
			continue
		}
		prev := vars[i-1]
		var may []string
		for j, spec := range st.args {
			switch spec {
			case "t":
				conds = append(conds, v+slots[j]+" == "+prev+".D")
			case "t?":
				may = append(may, v+slots[j]+" == "+prev+".D")
			}
		}
		if len(may) > 0 {
			conds = append(conds, "("+strings.Join(may, " || ")+")")
		}
	}
	if guard != "" {
		conds = append(conds, "("+guard+")")
	}
	return conds
}

// stageOpCond renders the opcode test for a non-final stage.
func stageOpCond(v, op string) string {
	switch op {
	case "pure":
		return "pure"
	case "cmp":
		return "isCmp(" + v + ".Op)"
	}
	if members, ok := opcodeClass[op]; ok {
		tests := make([]string, len(members))
		for i, m := range members {
			tests[i] = v + ".Op == " + opcodeConst[m]
		}
		return "(" + strings.Join(tests, " || ") + ")"
	}
	return v + ".Op == " + opcodeConst[op]
}

// GenerateSimplify renders the algebraic rule table into the source of
// internal/passes/simplify_gen.go: the AlgRule enumeration and the
// rewriteAlgebraic first-match rewriter. Output is gofmt-formatted and
// deterministic.
func GenerateSimplify() ([]byte, error) {
	if err := Validate(); err != nil {
		return nil, err
	}
	type parsed struct {
		SimplifyRule
		goName string
		pat    *sexpr
		to     *sexpr
	}
	var all []parsed
	for _, r := range SimplifyRules() {
		pat, err := parseSexpr(r.Pat)
		if err != nil {
			return nil, err
		}
		to, err := parseSexpr(r.To)
		if err != nil {
			return nil, err
		}
		all = append(all, parsed{r, goName(r.Name), pat, to})
	}

	var sb strings.Builder
	sb.WriteString(header)
	sb.WriteString("package passes\n\nimport \"gsim/internal/ir\"\n\n")
	sb.WriteString(`// AlgRule identifies one algebraic simplification rule of the declarative
// table in internal/emit/rules. AlgRuleNone means no rule matches;
// NumAlgRules is the enumeration sentinel — diagnostics and the coverage
// tests sweep [AlgRuleNone+1, NumAlgRules).
type AlgRule uint8

`)
	sb.WriteString("const (\n\tAlgRuleNone AlgRule = iota\n")
	for _, p := range all {
		fmt.Fprintf(&sb, "\t// AlgRule%s: %s -> %s\n\tAlgRule%s\n", p.goName, p.Pat, p.To, p.goName)
	}
	sb.WriteString("\n\tNumAlgRules\n)\n\n")
	sb.WriteString("var algRuleNames = [NumAlgRules]string{\n\t\"none\",\n")
	for _, p := range all {
		fmt.Fprintf(&sb, "\t%q,\n", p.Name)
	}
	sb.WriteString("}\n\n")
	sb.WriteString("var algRulePatterns = [NumAlgRules]string{\n\t\"\",\n")
	for _, p := range all {
		fmt.Fprintf(&sb, "\t\"%s -> %s\",\n", p.Pat, p.To)
	}
	sb.WriteString("}\n\n")
	sb.WriteString(`// String names the rule as declared in the rule table.
func (r AlgRule) String() string {
	if int(r) < len(algRuleNames) {
		return algRuleNames[r]
	}
	return "invalid"
}

// Pattern returns the rule's declared rewrite, pattern -> template.
func (r AlgRule) Pattern() string {
	if int(r) < len(algRulePatterns) {
		return algRulePatterns[r]
	}
	return ""
}

`)
	sb.WriteString(`// rewriteAlgebraic applies the first algebraic rule matching the root of e,
// returning the replacement and the rule, or (nil, AlgRuleNone). Arguments
// are assumed already simplified; the caller re-fits the result to e's
// width and counts the fire.
func rewriteAlgebraic(e *ir.Expr) (*ir.Expr, AlgRule) {
`)
	// Group rules by root operator in first-appearance order.
	var order []string
	byOp := map[string][]parsed{}
	for _, p := range all {
		k := p.pat.op
		if _, ok := byOp[k]; !ok {
			order = append(order, k)
		}
		byOp[k] = append(byOp[k], p)
	}
	sb.WriteString("\tswitch e.Op {\n")
	for _, k := range order {
		fmt.Fprintf(&sb, "\tcase %s:\n", irOpConst[k])
		for _, p := range byOp[k] {
			writeSimplifyBlock(&sb, p.goName, p.Name, p.pat, p.Guard, p.to, "")
			if p.Comm {
				swapped := &sexpr{op: p.pat.op, args: []*sexpr{p.pat.args[1], p.pat.args[0]}}
				writeSimplifyBlock(&sb, p.goName, p.Name, swapped, p.Guard, p.to, " (comm)")
			}
		}
	}
	sb.WriteString("\t}\n\treturn nil, AlgRuleNone\n}\n")
	return format.Source([]byte(sb.String()))
}

// writeSimplifyBlock renders one rule instance (direct or commuted) as a
// guarded return inside the root-operator case.
func writeSimplifyBlock(sb *strings.Builder, goName, name string, pat *sexpr, guard string, to *sexpr, variant string) {
	binds := map[string]string{}
	var conds []string
	for i, a := range pat.args {
		patConds(a, fmt.Sprintf("e.Args[%d]", i), binds, &conds)
	}
	if guard != "" {
		conds = append(conds, substMetavars(guard, binds))
	}
	fmt.Fprintf(sb, "\t\t// %s%s: %s -> %s\n", name, variant, renderSexpr(pat), renderSexpr(to))
	ret := fmt.Sprintf("return %s, AlgRule%s", buildTo(to, binds), goName)
	if len(conds) == 0 {
		fmt.Fprintf(sb, "\t\t%s\n", ret)
		return
	}
	fmt.Fprintf(sb, "\t\tif %s {\n\t\t\t%s\n\t\t}\n", strings.Join(conds, " && "), ret)
}

// patConds appends the structural conditions for one pattern subtree rooted
// at path, binding metavariables to their first-occurrence paths.
func patConds(p *sexpr, path string, binds map[string]string, conds *[]string) {
	if p.atom != "" {
		switch p.atom {
		case "_":
		case "0":
			*conds = append(*conds, "isZero("+path+")")
		case "1":
			*conds = append(*conds, "isOne("+path+")")
		case "ones":
			*conds = append(*conds, "isOnes("+path+")")
		default:
			if prev, ok := binds[p.atom]; ok {
				*conds = append(*conds, "ir.StructEq("+prev+", "+path+")")
				return
			}
			binds[p.atom] = path
			if strings.HasPrefix(p.atom, "k") {
				*conds = append(*conds, "isConst("+path+")")
			}
		}
		return
	}
	*conds = append(*conds, path+".Op == "+irOpConst[p.op])
	for i, a := range p.args {
		patConds(a, fmt.Sprintf("%s.Args[%d]", path, i), binds, conds)
	}
}

// substMetavars replaces whole-word metavariable references in a guard with
// their bound paths. Replacement paths (e.Args[i]...) contain no word
// matching the metavariable grammar — "e" is reserved, "Args" is capitalized
// — so no replacement can rewrite inside another and map order is
// irrelevant.
func substMetavars(guard string, binds map[string]string) string {
	out := guard
	for name, path := range binds {
		out = regexp.MustCompile(`\b`+name+`\b`).ReplaceAllString(out, path)
	}
	return "(" + out + ")"
}

// buildTo renders a rewrite template as a Go expression.
func buildTo(t *sexpr, binds map[string]string) string {
	if t.atom != "" {
		switch t.atom {
		case "0":
			return "constOf(e.Width, 0)"
		case "1":
			return "constOf(e.Width, 1)"
		}
		return binds[t.atom]
	}
	args := make([]string, len(t.args))
	for i, a := range t.args {
		args[i] = buildTo(a, binds)
	}
	switch {
	case irUnary[t.op]:
		return fmt.Sprintf("ir.Unary(%s, %s, 0)", irOpConst[t.op], args[0])
	case t.op == "mux":
		return fmt.Sprintf("ir.MuxOf(%s, %s, %s)", args[0], args[1], args[2])
	default:
		return fmt.Sprintf("ir.Binary(%s, %s, %s)", irOpConst[t.op], args[0], args[1])
	}
}

// renderSexpr prints a pattern or template back in its source syntax.
func renderSexpr(e *sexpr) string {
	if e.atom != "" {
		return e.atom
	}
	parts := make([]string, 0, len(e.args)+1)
	parts = append(parts, e.op)
	for _, a := range e.args {
		parts = append(parts, renderSexpr(a))
	}
	return "(" + strings.Join(parts, " ") + ")"
}
