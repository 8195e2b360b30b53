package rules

import (
	"fmt"
	"go/parser"
	"regexp"
	"strings"
)

// opcodeConst maps a pattern opcode name to its emit.OpCode constant. The
// enumeration must stay in sync with emit/program.go; the generated fusion
// matcher referencing a missing constant fails to compile, so drift cannot
// land silently.
var opcodeConst = map[string]string{
	"copy": "CCopy", "add": "CAdd", "sub": "CSub", "mul": "CMul",
	"div": "CDiv", "rem": "CRem", "neg": "CNeg", "and": "CAnd",
	"or": "COr", "xor": "CXor", "not": "CNot", "andr": "CAndR",
	"orr": "COrR", "xorr": "CXorR", "eq": "CEq", "neq": "CNeq",
	"lt": "CLt", "leq": "CLeq", "gt": "CGt", "geq": "CGeq",
	"slt": "CSLt", "sleq": "CSLeq", "sgt": "CSGt", "sgeq": "CSGeq",
	"shl": "CShl", "shr": "CShr", "dshl": "CDshl", "dshr": "CDshr",
	"cat": "CCat", "bits": "CBits", "sext": "CSExt", "mux": "CMux",
	"memread": "CMemRead",
}

// opcodeArity gives the number of operand slots each opcode reads (A, B, C
// in order); patterns must spell exactly this many operand specs.
var opcodeArity = map[string]int{
	"copy": 1, "neg": 1, "not": 1, "andr": 1, "orr": 1, "xorr": 1,
	"shl": 1, "shr": 1, "bits": 1, "sext": 1, "memread": 1,
	"add": 2, "sub": 2, "mul": 2, "div": 2, "rem": 2, "and": 2, "or": 2,
	"xor": 2, "eq": 2, "neq": 2, "lt": 2, "leq": 2, "gt": 2, "geq": 2,
	"slt": 2, "sleq": 2, "sgt": 2, "sgeq": 2, "dshl": 2, "dshr": 2, "cat": 2,
	"mux": 3,
}

// opcodeClass names the opcode sets usable in fusion patterns. Members are
// listed in enum order; every member of a class must share one arity. The
// pseudo-class pure (the value rows marked Inline) is handled separately:
// it takes no operand specs and is only valid as a window's first
// instruction.
var opcodeClass = map[string][]string{
	"cmp":   {"eq", "neq", "lt", "leq", "gt", "geq", "slt", "sleq", "sgt", "sgeq"},
	"mask":  {"copy", "bits"},
	"logic": {"and", "or", "xor"},
	"eqz":   {"eq", "neq"},
}

// irOpConst maps a simplify-pattern operator name to its ir.Op constant.
var irOpConst = map[string]string{
	"add": "ir.OpAdd", "sub": "ir.OpSub", "mul": "ir.OpMul", "div": "ir.OpDiv",
	"rem": "ir.OpRem", "neg": "ir.OpNeg", "and": "ir.OpAnd", "or": "ir.OpOr",
	"xor": "ir.OpXor", "not": "ir.OpNot", "andr": "ir.OpAndR",
	"orr": "ir.OpOrR", "xorr": "ir.OpXorR", "eq": "ir.OpEq",
	"neq": "ir.OpNeq", "lt": "ir.OpLt", "leq": "ir.OpLeq", "gt": "ir.OpGt",
	"geq": "ir.OpGeq", "slt": "ir.OpSLt", "sleq": "ir.OpSLeq",
	"sgt": "ir.OpSGt", "sgeq": "ir.OpSGeq", "dshl": "ir.OpDshl",
	"dshr": "ir.OpDshr", "cat": "ir.OpCat", "mux": "ir.OpMux",
}

// irOpArity mirrors the ir operator arities for pattern validation. The
// parameterized operators (bits, shl, shr, pad, sext) are deliberately
// absent: their rewrites depend on Hi/Lo/width parameters the template
// language cannot express, so they stay hand-written in rewriteOnce.
var irOpArity = map[string]int{
	"add": 2, "sub": 2, "mul": 2, "div": 2, "rem": 2, "and": 2, "or": 2,
	"xor": 2, "eq": 2, "neq": 2, "lt": 2, "leq": 2, "gt": 2, "geq": 2,
	"slt": 2, "sleq": 2, "sgt": 2, "sgeq": 2, "dshl": 2, "dshr": 2, "cat": 2,
	"neg": 1, "not": 1, "andr": 1, "orr": 1, "xorr": 1,
	"mux": 3,
}

// irUnary marks the ir operators built with ir.Unary in templates.
var irUnary = map[string]bool{"neg": true, "not": true, "andr": true, "orr": true, "xorr": true}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(-[a-z0-9]+)*$`)
var metavarRE = regexp.MustCompile(`^[a-z][a-z0-9]*$`)

// reservedIdents are Go identifiers the generated simplify code uses itself;
// metavariables must not shadow them.
var reservedIdents = map[string]bool{
	"e": true, "ir": true, "isZero": true, "isOne": true, "isOnes": true,
	"isConst": true, "constOf": true, "fit": true,
}

// fuseStage is one parsed instruction of a fusion window.
type fuseStage struct {
	op   string   // opcode name, class name, or "pure"
	args []string // one of "_", "t", "t?" per operand slot
}

// parseFusePat parses a fusion window pattern into its stages.
func parseFusePat(pat string) ([]fuseStage, error) {
	parts := strings.Split(pat, ">>")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("window must have 2 or 3 instructions, got %d", len(parts))
	}
	stages := make([]fuseStage, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if !strings.HasPrefix(part, "(") || !strings.HasSuffix(part, ")") {
			return nil, fmt.Errorf("stage %d: %q is not parenthesized", i, part)
		}
		fields := strings.Fields(part[1 : len(part)-1])
		if len(fields) == 0 {
			return nil, fmt.Errorf("stage %d: empty instruction", i)
		}
		st := fuseStage{op: fields[0], args: fields[1:]}
		if err := checkStage(st, i, len(parts)); err != nil {
			return nil, err
		}
		stages[i] = st
	}
	return stages, nil
}

func checkStage(st fuseStage, idx, total int) error {
	if st.op == "pure" {
		if idx != 0 {
			return fmt.Errorf("stage %d: pure is only valid as the first instruction", idx)
		}
		if len(st.args) != 0 {
			return fmt.Errorf("stage %d: pure takes no operand specs", idx)
		}
		return nil
	}
	arity := -1
	if members, ok := opcodeClass[st.op]; ok {
		for _, m := range members {
			if arity >= 0 && opcodeArity[m] != arity {
				return fmt.Errorf("class %s mixes arities", st.op)
			}
			arity = opcodeArity[m]
		}
	} else if _, ok := opcodeConst[st.op]; ok {
		arity = opcodeArity[st.op]
	} else {
		return fmt.Errorf("stage %d: unknown opcode or class %q", idx, st.op)
	}
	if len(st.args) != arity {
		return fmt.Errorf("stage %d: %s takes %d operand specs, got %d", idx, st.op, arity, len(st.args))
	}
	mayFeed := false
	for j, a := range st.args {
		switch a {
		case "_":
		case "t", "t?":
			if idx == 0 {
				return fmt.Errorf("stage 0: %q has no previous instruction to feed from", a)
			}
			mayFeed = mayFeed || a == "t?"
		default:
			return fmt.Errorf("stage %d operand %d: unknown spec %q", idx, j, a)
		}
	}
	if idx > 0 && !mayFeed && !strings.Contains(strings.Join(st.args, " "), "t") {
		return fmt.Errorf("stage %d reads nothing from the previous instruction", idx)
	}
	return nil
}

// sexpr is a parsed simplify pattern or template node: either an atom
// (metavariable or constant matcher) or an operator application.
type sexpr struct {
	atom string
	op   string
	args []*sexpr
}

// parseSexpr parses one s-expression; the whole input must be consumed.
func parseSexpr(s string) (*sexpr, error) {
	toks := tokenize(s)
	e, rest, err := parseTokens(toks)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("trailing tokens %v", rest)
	}
	return e, nil
}

func tokenize(s string) []string {
	s = strings.ReplaceAll(s, "(", " ( ")
	s = strings.ReplaceAll(s, ")", " ) ")
	return strings.Fields(s)
}

func parseTokens(toks []string) (*sexpr, []string, error) {
	if len(toks) == 0 {
		return nil, nil, fmt.Errorf("unexpected end of pattern")
	}
	if toks[0] != "(" {
		if toks[0] == ")" {
			return nil, nil, fmt.Errorf("unexpected )")
		}
		return &sexpr{atom: toks[0]}, toks[1:], nil
	}
	toks = toks[1:]
	if len(toks) == 0 || toks[0] == "(" || toks[0] == ")" {
		return nil, nil, fmt.Errorf("expected operator after (")
	}
	node := &sexpr{op: toks[0]}
	toks = toks[1:]
	for {
		if len(toks) == 0 {
			return nil, nil, fmt.Errorf("missing )")
		}
		if toks[0] == ")" {
			return node, toks[1:], nil
		}
		arg, rest, err := parseTokens(toks)
		if err != nil {
			return nil, nil, err
		}
		node.args = append(node.args, arg)
		toks = rest
	}
}

// checkPat validates a simplify pattern tree and collects its metavariables.
func checkPat(e *sexpr, binds map[string]bool) error {
	if e.atom != "" {
		switch e.atom {
		case "_", "0", "1", "ones":
			return nil
		}
		if !metavarRE.MatchString(e.atom) {
			return fmt.Errorf("bad atom %q", e.atom)
		}
		if reservedIdents[e.atom] {
			return fmt.Errorf("metavariable %q shadows a generated identifier", e.atom)
		}
		binds[e.atom] = true
		return nil
	}
	arity, ok := irOpArity[e.op]
	if !ok {
		return fmt.Errorf("unknown or non-pattern operator %q", e.op)
	}
	if len(e.args) != arity {
		return fmt.Errorf("%s takes %d args, got %d", e.op, arity, len(e.args))
	}
	for _, a := range e.args {
		if err := checkPat(a, binds); err != nil {
			return err
		}
	}
	return nil
}

// checkTo validates a rewrite template against the pattern's metavariables.
func checkTo(e *sexpr, binds map[string]bool) error {
	if e.atom != "" {
		switch e.atom {
		case "0", "1":
			return nil
		}
		if !binds[e.atom] {
			return fmt.Errorf("template uses unbound metavariable %q", e.atom)
		}
		return nil
	}
	arity, ok := irOpArity[e.op]
	if !ok {
		return fmt.Errorf("template uses unknown operator %q", e.op)
	}
	if len(e.args) != arity {
		return fmt.Errorf("template %s takes %d args, got %d", e.op, arity, len(e.args))
	}
	for _, a := range e.args {
		if err := checkTo(a, binds); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the tables: one parseable value row per pure opcode, rule
// names well-formed and unique, patterns parse, simplify templates closed over their patterns' metavariables. The
// generator refuses to run on a table that does not validate, and the rules
// test suite calls this directly.
func Validate() error {
	seen := map[string]bool{}
	for _, r := range ValueRows() {
		if _, ok := opcodeConst[r.Op]; !ok || r.Op == "memread" || seen["v/"+r.Op] {
			return fmt.Errorf("value row %q: not a pure opcode, or a second row for it", r.Op)
		}
		seen["v/"+r.Op] = true
		if _, err := parser.ParseExpr(r.Val); err != nil {
			return fmt.Errorf("value row %q: %v", r.Op, err)
		}
	}
	for op := range opcodeConst {
		if op != "memread" && !seen["v/"+op] {
			return fmt.Errorf("opcode %q has no value row", op)
		}
	}
	for _, r := range FusionRules() {
		if !nameRE.MatchString(r.Name) {
			return fmt.Errorf("fusion rule %q: bad name", r.Name)
		}
		if seen["f/"+r.Name] {
			return fmt.Errorf("fusion rule %q: duplicate name", r.Name)
		}
		seen["f/"+r.Name] = true
		if _, err := parseFusePat(r.Pat); err != nil {
			return fmt.Errorf("fusion rule %q: %v", r.Name, err)
		}
	}
	for _, r := range SimplifyRules() {
		if !nameRE.MatchString(r.Name) {
			return fmt.Errorf("simplify rule %q: bad name", r.Name)
		}
		if seen["s/"+r.Name] {
			return fmt.Errorf("simplify rule %q: duplicate name", r.Name)
		}
		seen["s/"+r.Name] = true
		pat, err := parseSexpr(r.Pat)
		if err != nil {
			return fmt.Errorf("simplify rule %q: pattern: %v", r.Name, err)
		}
		if pat.atom != "" {
			return fmt.Errorf("simplify rule %q: pattern root must be an operator", r.Name)
		}
		binds := map[string]bool{}
		if err := checkPat(pat, binds); err != nil {
			return fmt.Errorf("simplify rule %q: pattern: %v", r.Name, err)
		}
		to, err := parseSexpr(r.To)
		if err != nil {
			return fmt.Errorf("simplify rule %q: template: %v", r.Name, err)
		}
		if err := checkTo(to, binds); err != nil {
			return fmt.Errorf("simplify rule %q: %v", r.Name, err)
		}
		if r.Comm && len(pat.args) != 2 {
			return fmt.Errorf("simplify rule %q: Comm requires a binary root", r.Name)
		}
	}
	return nil
}

// goName converts a kebab-case rule name to its CamelCase constant suffix.
func goName(name string) string {
	var sb strings.Builder
	for _, part := range strings.Split(name, "-") {
		sb.WriteString(strings.ToUpper(part[:1]))
		sb.WriteString(part[1:])
	}
	return sb.String()
}
