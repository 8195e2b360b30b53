package rules

import (
	"fmt"
	"go/format"
	"regexp"
	"strings"
)

// header is the marker the Go toolchain recognizes as generated code; both
// output files start with it so reviewers and lint skip them. Keep the text
// free of anything nondeterministic — CI regenerates and diffs.
const header = `// Code generated by rulegen from internal/emit/rules; DO NOT EDIT.
// Regenerate with: go generate ./internal/emit/...

`

// GenerateFuse renders the fusion rule table into the source of
// internal/emit/fuse_gen.go: the FuseRule enumeration, the matchFuse2 and
// matchFuse3 structural matchers, and the compileFuse2/compileFuse3
// constructor dispatch. Output is gofmt-formatted and deterministic.
func GenerateFuse() ([]byte, error) {
	if err := Validate(); err != nil {
		return nil, err
	}
	type parsed struct {
		FuseRule
		goName string
		stages []fuseStage
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
	sb.WriteString("package emit\n\n")
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
			sb.WriteString("\tpure := pureNarrow(a)\n")
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
		fmt.Fprintf(&sb, "func %s(p *Program, m *Machine, %s Instr, r FuseRule) BoundFn {\n",
			cfn, strings.Join(vars[:arity], ", ")+" ")
		sb.WriteString("\tswitch r {\n")
		for _, p := range group {
			fmt.Fprintf(&sb, "\tcase FuseRule%s:\n\t\treturn %s(p, m, %s)\n",
				p.goName, p.Emit, strings.Join(vars[:arity], ", "))
		}
		sb.WriteString("\t}\n")
		fmt.Fprintf(&sb, "\tpanic(\"emit: %s: no constructor for rule \" + r.String())\n}\n\n", cfn)
	}
	return format.Source([]byte(sb.String()))
}

// caseOps expands a consumer opcode or class name to its switch-case
// constants.
func caseOps(op string) []string {
	if members, ok := opcodeClass[op]; ok {
		consts := make([]string, len(members))
		for i, m := range members {
			consts[i] = opcodeConst[m]
		}
		return consts
	}
	return []string{opcodeConst[op]}
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
