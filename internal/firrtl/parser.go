package firrtl

import (
	"fmt"
	"strconv"
)

// --- AST ---

// Circuit is a parsed FIRRTL circuit.
type Circuit struct {
	Name    string
	Modules map[string]*Module
	Order   []string
}

// Module is one FIRRTL module.
type Module struct {
	Name  string
	Ports []Port
	Body  []Stmt
}

// Port is a module port.
type Port struct {
	Name  string
	Input bool
	Type  Type
	Line  int
}

// Type is a FIRRTL ground type.
type Type struct {
	Kind  TypeKind
	Width int
}

// TypeKind enumerates supported ground types.
type TypeKind uint8

// Ground type kinds.
const (
	TyUInt TypeKind = iota
	TySInt
	TyClock
	TyReset
)

// Signed reports whether the type is SInt.
func (t Type) Signed() bool { return t.Kind == TySInt }

// Stmt is a statement node.
type Stmt interface{ stmtLine() int }

type stmtBase struct{ Line int }

func (s stmtBase) stmtLine() int { return s.Line }

// WireStmt declares a wire.
type WireStmt struct {
	stmtBase
	Name string
	Type Type
}

// RegStmt declares a register, optionally with reset.
type RegStmt struct {
	stmtBase
	Name     string
	Type     Type
	HasReset bool
	ResetSig Expr
	Init     Expr
}

// NodeStmt names an expression.
type NodeStmt struct {
	stmtBase
	Name string
	Expr Expr
}

// ConnectStmt drives a target: target <= value.
type ConnectStmt struct {
	stmtBase
	Target string // dotted reference
	Value  Expr
}

// InvalidStmt marks a target invalid (driven to zero here).
type InvalidStmt struct {
	stmtBase
	Target string
}

// WhenStmt is a conditional block.
type WhenStmt struct {
	stmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// InstStmt instantiates a module.
type InstStmt struct {
	stmtBase
	Name   string
	Module string
}

// MemStmt declares a memory.
type MemStmt struct {
	stmtBase
	Name         string
	DataType     Type
	Depth        int
	ReadLatency  int
	WriteLatency int
	Readers      []string
	Writers      []string
}

// SkipStmt does nothing (also used for ignored stop/printf/assert).
type SkipStmt struct{ stmtBase }

// Expr is an expression node.
type Expr interface{ exprLine() int }

type exprBase struct{ Line int }

func (e exprBase) exprLine() int { return e.Line }

// RefExpr references a signal by dotted name.
type RefExpr struct {
	exprBase
	Name string
}

// LitExpr is a UInt/SInt literal.
type LitExpr struct {
	exprBase
	Type Type
	Val  string // literal body: decimal or "h.."/"o.."/"b.."
	Neg  bool
}

// PrimExpr is a primop application; IntArgs carry the trailing integer
// parameters (bits, shl, pad, head, tail).
type PrimExpr struct {
	exprBase
	Op      string
	Args    []Expr
	IntArgs []int
}

// --- Parser ---

type parser struct {
	toks []token
	pos  int
}

// Parse parses FIRRTL source text.
func Parse(src string) (*Circuit, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.circuit()
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectIdent(word string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != word {
		return p.errf(t, "expected %q, got %s", word, t)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return p.errf(t, "expected %q, got %s", s, t)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if p.peek().kind == tokPunct && p.peek().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptIdent(s string) bool {
	if p.peek().kind == tokIdent && p.peek().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKind(k tokKind) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, p.errf(t, "unexpected %s", t)
	}
	return t, nil
}

func (p *parser) ident() (string, error) {
	t, err := p.expectKind(tokIdent)
	return t.text, err
}

func (p *parser) intLit() (int, error) {
	t, err := p.expectKind(tokInt)
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errf(t, "bad integer %q", t.text)
	}
	return v, nil
}

func (p *parser) skipNewlines() {
	for p.peek().kind == tokNewline {
		p.pos++
	}
}

func (p *parser) circuit() (*Circuit, error) {
	p.skipNewlines()
	// Skip an optional FIRRTL version line.
	if p.acceptIdent("FIRRTL") {
		for p.peek().kind != tokNewline && p.peek().kind != tokEOF {
			p.pos++
		}
		p.skipNewlines()
	}
	if err := p.expectIdent("circuit"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	c := &Circuit{Name: name, Modules: map[string]*Module{}}
	p.skipNewlines()
	if _, err := p.expectKind(tokIndent); err != nil {
		return nil, err
	}
	for {
		p.skipNewlines()
		if p.peek().kind == tokDedent || p.peek().kind == tokEOF {
			break
		}
		m, err := p.module()
		if err != nil {
			return nil, err
		}
		if _, dup := c.Modules[m.Name]; dup {
			return nil, fmt.Errorf("duplicate module %q", m.Name)
		}
		c.Modules[m.Name] = m
		c.Order = append(c.Order, m.Name)
	}
	if _, ok := c.Modules[name]; !ok {
		return nil, fmt.Errorf("top module %q not defined", name)
	}
	return c, nil
}

func (p *parser) module() (*Module, error) {
	if err := p.expectIdent("module"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	p.skipNewlines()
	if _, err := p.expectKind(tokIndent); err != nil {
		return nil, err
	}
	m := &Module{Name: name}
	// Ports.
	for {
		p.skipNewlines()
		t := p.peek()
		if t.kind != tokIdent || (t.text != "input" && t.text != "output") {
			break
		}
		p.pos++
		pname, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		m.Ports = append(m.Ports, Port{Name: pname, Input: t.text == "input", Type: ty, Line: int(t.line)})
	}
	body, err := p.stmtBlockRest()
	if err != nil {
		return nil, err
	}
	m.Body = body
	return m, nil
}

// stmtBlockRest parses statements until the enclosing DEDENT (consumed).
func (p *parser) stmtBlockRest() ([]Stmt, error) {
	var out []Stmt
	for {
		p.skipNewlines()
		t := p.peek()
		if t.kind == tokDedent || t.kind == tokEOF {
			if t.kind == tokDedent {
				p.pos++
			}
			return out, nil
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			out = append(out, s)
		}
	}
}

// stmtBlock parses NEWLINE INDENT stmts DEDENT.
func (p *parser) stmtBlock() ([]Stmt, error) {
	p.skipNewlines()
	if _, err := p.expectKind(tokIndent); err != nil {
		return nil, err
	}
	return p.stmtBlockRest()
}

func (p *parser) parseType() (Type, error) {
	t := p.next()
	if t.kind != tokIdent {
		return Type{}, p.errf(t, "expected type, got %s", t)
	}
	switch t.text {
	case "Clock":
		return Type{Kind: TyClock, Width: 1}, nil
	case "Reset", "AsyncReset":
		return Type{Kind: TyReset, Width: 1}, nil
	case "UInt", "SInt":
		ty := Type{Kind: TyUInt, Width: -1}
		if t.text == "SInt" {
			ty.Kind = TySInt
		}
		if p.acceptPunct("<") {
			w, err := p.intLit()
			if err != nil {
				return ty, err
			}
			if err := p.expectPunct(">"); err != nil {
				return ty, err
			}
			ty.Width = w
		}
		return ty, nil
	}
	return Type{}, p.errf(t, "unsupported type %q (bundles and vectors are outside the supported subset)", t.text)
}
