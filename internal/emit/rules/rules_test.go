package rules

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestValidate checks the shipped rule tables validate — the generator
// refuses to run otherwise, so this is the first thing to fail after a bad
// table edit.
func TestValidate(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValueRowsCoverPureOpcodes checks the value table states every pure
// opcode (all but memread) exactly once.
func TestValueRowsCoverPureOpcodes(t *testing.T) {
	rows := map[string]int{}
	for _, r := range ValueRows() {
		rows[r.Op]++
	}
	for op := range opcodeConst {
		want := 1
		if op == "memread" {
			want = 0
		}
		if rows[op] != want {
			t.Errorf("opcode %s: %d value rows, want %d", op, rows[op], want)
		}
	}
	if len(rows) != len(opcodeConst)-1 {
		t.Errorf("value table has %d opcodes, want %d", len(rows), len(opcodeConst)-1)
	}
}

// TestGeneratedPureClassIsInlineSet parses the generated fusion source and
// checks that the matcher's pure class (InlineProducer) names exactly the
// value rows marked Inline, and that the window kernel table maps every
// inline producer of every generic rule, with each consumer opcode of the
// rule's class, to a generated kernel.
func TestGeneratedPureClassIsInlineSet(t *testing.T) {
	src, err := GenerateFuse()
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "fuse_gen.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var inline, inlineOps []string
	for _, r := range ValueRows() {
		if r.Inline {
			inline = append(inline, opcodeConst[r.Op])
			inlineOps = append(inlineOps, r.Op)
		}
	}
	funcs := map[string]bool{}
	windows := map[string]string{} // "CXor CMux" -> kernel name
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			funcs[d.Name.Name] = true
			if got := outerCases(d); d.Name.Name == "InlineProducer" && !slices.Equal(got, inline) {
				t.Errorf("InlineProducer switches on %v, want the inline rows %v", got, inline)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || vs.Names[0].Name != "windowKernels" {
					continue
				}
				for _, elt := range vs.Values[0].(*ast.CompositeLit).Elts {
					kv := elt.(*ast.KeyValueExpr)
					var ops []string
					for _, e := range kv.Key.(*ast.CompositeLit).Elts {
						ops = append(ops, e.(*ast.Ident).Name)
					}
					windows[strings.Join(ops, " ")] = kv.Value.(*ast.Ident).Name
				}
			}
		}
	}
	if !funcs["InlineProducer"] || len(windows) == 0 {
		t.Fatal("generated source has no InlineProducer or no windowKernels table")
	}
	for _, r := range FusionRules() {
		stages, err := parseFusePat(r.Pat)
		if err != nil || stages[0].op != "pure" {
			continue
		}
		for _, p := range inlineOps {
			for _, c := range classMembers(stages[1].op) {
				if k := windows[opcodeConst[p]+" "+opcodeConst[c]]; !funcs[k] {
					t.Errorf("rule %s: window %s >> %s has kernel %q, not a generated function", r.Name, p, c, k)
				}
			}
		}
	}
}

// outerCases returns the case constants of a function's first top-level
// switch statement.
func outerCases(fn *ast.FuncDecl) []string {
	var cases []string
	for _, st := range fn.Body.List {
		sw, ok := st.(*ast.SwitchStmt)
		if !ok {
			continue
		}
		for _, cc := range sw.Body.List {
			for _, e := range cc.(*ast.CaseClause).List {
				cases = append(cases, e.(*ast.Ident).Name)
			}
		}
		break
	}
	return cases
}

// TestParseFusePatRejects pins the fusion-pattern grammar's negative space:
// each malformed window must be refused with a diagnostic, not silently
// compiled into a matcher that can never fire (or fires on everything).
func TestParseFusePatRejects(t *testing.T) {
	cases := []struct {
		name string
		pat  string
	}{
		{"one-stage", "(add _ _)"},
		{"four-stages", "(add _ _) >> (mask t) >> (mask t) >> (mask t)"},
		{"unknown-op", "(frob _ _) >> (mask t)"},
		{"bad-arity", "(add _) >> (mask t)"},
		{"feed-in-stage-zero", "(add t _) >> (mask t)"},
		{"stage-reads-nothing", "(add _ _) >> (mask _)"},
		{"pure-with-args", "(pure _) >> (mask t)"},
		{"pure-not-first", "(add _ _) >> (pure)"},
		{"unknown-spec", "(add _ _) >> (mask q)"},
		{"unparenthesized", "add _ _ >> (mask t)"},
	}
	for _, c := range cases {
		if _, err := parseFusePat(c.pat); err == nil {
			t.Errorf("%s: pattern %q parsed, want error", c.name, c.pat)
		}
	}
}

// TestParseFusePatStages checks the parsed structure of a representative
// window.
func TestParseFusePatStages(t *testing.T) {
	stages, err := parseFusePat("(cmp _ _) >> (mux t _ _) >> (mux _ t? t?)")
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("got %d stages, want 3", len(stages))
	}
	if stages[0].op != "cmp" || len(stages[0].args) != 2 {
		t.Fatalf("stage 0: %+v", stages[0])
	}
	if stages[1].args[0] != "t" || stages[2].args[1] != "t?" {
		t.Fatalf("operand specs not preserved: %+v", stages)
	}
}

// TestParseSexpr pins the simplify-pattern parser on shape and rejection.
func TestParseSexpr(t *testing.T) {
	e, err := parseSexpr("(mux s (not x) 0)")
	if err != nil {
		t.Fatal(err)
	}
	if e.op != "mux" || len(e.args) != 3 || e.args[1].op != "not" || e.args[2].atom != "0" {
		t.Fatalf("parsed shape wrong: %+v", e)
	}
	for _, bad := range []string{"", "(and x", "and x)", "(and x 0) y", "()", "((and) x 0)"} {
		if _, err := parseSexpr(bad); err == nil {
			t.Errorf("%q parsed, want error", bad)
		}
	}
}

// TestValidateRejectsBadSimplifyRules runs the checkers on rules that must
// be refused: unknown operators, wrong arities, unbound template
// metavariables, and metavariables shadowing generated identifiers.
func TestValidateRejectsBadSimplifyRules(t *testing.T) {
	check := func(pat, to string) error {
		p, err := parseSexpr(pat)
		if err != nil {
			return err
		}
		binds := map[string]bool{}
		if err := checkPat(p, binds); err != nil {
			return err
		}
		tt, err := parseSexpr(to)
		if err != nil {
			return err
		}
		return checkTo(tt, binds)
	}
	cases := []struct{ pat, to string }{
		{"(frob x 0)", "x"},        // unknown operator
		{"(not x y)", "x"},         // wrong arity
		{"(and x 0)", "y"},         // unbound template metavariable
		{"(and e 0)", "e"},         // metavariable shadows the root identifier
		{"(bits x)", "x"},          // parameterized op is not patternable
		{"(and x 0)", "(frob x)"},  // unknown template operator
		{"(and x 0)", "(not x y)"}, // template arity
		{"(and X 0)", "X"},         // uppercase is not a metavariable
	}
	for _, c := range cases {
		if err := check(c.pat, c.to); err == nil {
			t.Errorf("pat %q to %q accepted, want error", c.pat, c.to)
		}
	}
}

func TestGoName(t *testing.T) {
	for in, want := range map[string]string{
		"copy-mux":    "CopyMux",
		"mux-mux-mux": "MuxMuxMux",
		"and-eqz":     "AndEqz",
		"neq-zero":    "NeqZero",
	} {
		if got := goName(in); got != want {
			t.Errorf("goName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestGeneratedFilesFresh regenerates both matchers and compares them
// byte-for-byte against the committed files — the same check CI runs via
// `go generate` + `git diff`, but hermetic, so a stale generated file fails
// `go test ./...` locally too.
func TestGeneratedFilesFresh(t *testing.T) {
	for _, f := range []struct {
		path string
		gen  func() ([]byte, error)
	}{
		{"../fuse_gen.go", GenerateFuse},
		{"../../passes/simplify_gen.go", GenerateSimplify},
	} {
		fresh, err := f.gen()
		if err != nil {
			t.Fatalf("%s: generator failed: %v", f.path, err)
		}
		committed, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatalf("%s: %v", f.path, err)
		}
		if string(fresh) != string(committed) {
			t.Fatalf("%s is stale — run `go generate ./internal/emit/...` and commit the result", f.path)
		}
	}
}

// TestGeneratorOutputShape spot-checks structural properties of the
// generated sources that the type system can't: the DO-NOT-EDIT header, one
// enum constant per table line, and no matcher case falling through to a
// wrong-priority rule (rule order in the table is match priority, so the
// generated source must mention the rules in table order within each
// consumer group).
func TestGeneratorOutputShape(t *testing.T) {
	fuse, err := GenerateFuse()
	if err != nil {
		t.Fatal(err)
	}
	simp, err := GenerateSimplify()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{string(fuse), string(simp)} {
		if !strings.HasPrefix(src, "// Code generated by rulegen") {
			t.Fatal("generated file missing DO NOT EDIT header")
		}
	}
	fs := string(fuse)
	for _, r := range FusionRules() {
		if !strings.Contains(fs, "FuseRule"+goName(r.Name)) {
			t.Errorf("fusion rule %q has no generated constant", r.Name)
		}
	}
	ss := string(simp)
	for _, r := range SimplifyRules() {
		if !strings.Contains(ss, "AlgRule"+goName(r.Name)) {
			t.Errorf("simplify rule %q has no generated constant", r.Name)
		}
	}
	// Priority order: mux-mux must be tried before alu-mux in the generated
	// pair matcher (a mux feeding a mux arm matches both; the table puts the
	// specialized rule first).
	m := fs[strings.Index(fs, "func matchFuse2"):]
	if i, j := strings.Index(m, "return FuseRuleMuxMux\n"), strings.Index(m, "return FuseRuleAluMux\n"); i < 0 || j < 0 || i > j {
		t.Error("generated matcher does not try mux-mux before alu-mux")
	}
}
