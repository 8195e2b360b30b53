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
// names, the matchFuse2 and matchFuse3 structural matchers, the inline
// producer class, one kernel per pure opcode and one per opcode tuple a
// fusion pattern admits, and the tables the stream builder picks kernels
// from. Output is gofmt-formatted and deterministic.
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
	sb.WriteString("package emit\n\nimport (\n\t\"math/bits\"\n\t\"unsafe\"\n)\n\n")
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
	}

	var inline []string
	for _, r := range rows {
		if r.Inline {
			inline = append(inline, opcodeConst[r.Op])
		}
	}
	sb.WriteString(`// InlineProducer reports whether op's value row is marked Inline: the pure
// producer class of the generic fusion rules.
func InlineProducer(op OpCode) bool {
`)
	if len(inline) > 0 {
		fmt.Fprintf(&sb, "\tswitch op {\n\tcase %s:\n\t\treturn true\n\t}\n", strings.Join(inline, ", "))
	}
	sb.WriteString("\treturn false\n}\n\n")

	sb.WriteString(`// Kernels. Each runs the operand records of one window against the state
// image at st: it stores every instruction's value row in window order and
// returns the record after the window. A fused window stores its leading
// instructions, then tail-calls its last instruction's single kernel, which
// the Go compiler inlines; that instruction re-reads any fed operand from
// the state image after the store.

`)
	val := map[string]string{}
	var singles []string
	for _, r := range rows {
		val[r.Op] = r.Val
		singles = append(singles, opcodeConst[r.Op]+": "+kernelName(r.Op))
		fmt.Fprintf(&sb, "func %s(st unsafe.Pointer, m *Machine, a *Op) *Op {\n\t*at(st, a.D) = %s\n\treturn a.next()\n}\n\n",
			kernelName(r.Op), recordValue(r.Val, "a"))
	}
	var windows []string
	for _, tuple := range windowTuples(all, rows) {
		for _, op := range tuple[:len(tuple)-1] {
			if _, ok := val[op]; !ok {
				return nil, fmt.Errorf("fusion window %v: %s has no value row", tuple, op)
			}
		}
		writeWindowKernel(&sb, tuple, val)
		consts := make([]string, len(tuple))
		for i, op := range tuple {
			consts[i] = opcodeConst[op]
		}
		windows = append(windows, "{"+strings.Join(consts, ", ")+"}: "+kernelName(tuple...))
	}

	sb.WriteString("// narrowKernels is each opcode's single-instruction narrow kernel.\n")
	writeTable(&sb, "narrowKernels = [cOpCount]kernel", append(singles, "CMemRead: kMemread"))
	sb.WriteString("// windowKernels maps a fused window's opcodes — a pair's third is\n// CInvalid — to its kernel.\n")
	writeTable(&sb, "windowKernels = map[[3]OpCode]kernel", windows)
	return format.Source([]byte(sb.String()))
}

// valueIdent matches the identifiers a value row may use; valueDef gives
// each one's definition over the operand record X (see ValueRow).
var valueIdent = regexp.MustCompile(`\b(pa|pb|pc|dm|am|aw|bw|sh|cs)\b`)

var valueDef = map[string]string{
	"pa": "at(st, X.A)", "pb": "at(st, X.B)", "pc": "at(st, X.C)",
	"dm": "mask8(X.DW)", "am": "mask8(X.AW)", "aw": "int32(X.AW)", "bw": "int32(X.BW)",
	"sh": "X.Sh", "cs": "X.BW",
}

// recordValue instantiates value expression val over operand record x.
func recordValue(val, x string) string {
	return valueIdent.ReplaceAllStringFunc(val, func(id string) string {
		return strings.ReplaceAll(valueDef[id], "X", x)
	})
}

// kernelName names the kernel of a window of the given opcodes.
func kernelName(ops ...string) string {
	name := "k"
	for _, op := range ops {
		name += strings.ToUpper(op[:1]) + op[1:]
	}
	return name
}

// windowTuples lists, in first-appearance order, every distinct opcode
// tuple a fusion pattern admits: each stage expanded to its class members,
// pure to the inline rows.
func windowTuples(all []parsed, rows []ValueRow) [][]string {
	var out [][]string
	seen := map[string]bool{}
	for _, p := range all {
		tuples := [][]string{nil}
		for _, st := range p.stages {
			ops := classMembers(st.op)
			if st.op == "pure" {
				ops = nil
				for _, r := range rows {
					if r.Inline {
						ops = append(ops, r.Op)
					}
				}
			}
			var next [][]string
			for _, t := range tuples {
				for _, op := range ops {
					next = append(next, append(slices.Clone(t), op))
				}
			}
			tuples = next
		}
		for _, t := range tuples {
			if k := strings.Join(t, " "); !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// writeWindowKernel renders the kernel of one opcode tuple: the value rows
// of all but the last instruction stored in order, then the last one's
// single kernel.
func writeWindowKernel(sb *strings.Builder, tuple []string, val map[string]string) {
	vars := []string{"a", "b"}
	fmt.Fprintf(sb, "func %s(st unsafe.Pointer, m *Machine, a *Op) *Op {\n", kernelName(tuple...))
	if len(tuple) == 3 {
		sb.WriteString("\tb := a.next()\n")
	}
	for i, op := range tuple[:len(tuple)-1] {
		fmt.Fprintf(sb, "\t*at(st, %s.D) = %s\n", vars[i], recordValue(val[op], vars[i]))
	}
	fmt.Fprintf(sb, "\treturn %s(st, m, %s.next())\n}\n\n", kernelName(tuple[len(tuple)-1]), vars[len(tuple)-2])
}

// writeTable renders a composite-literal variable, a few entries a line.
func writeTable(sb *strings.Builder, decl string, entries []string) {
	fmt.Fprintf(sb, "var %s{\n", decl)
	for len(entries) > 0 {
		n := min(4, len(entries))
		fmt.Fprintf(sb, "\t%s,\n", strings.Join(entries[:n], ", "))
		entries = entries[n:]
	}
	sb.WriteString("}\n\n")
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
