package firrtl

import (
	"fmt"
	"os"

	"gsim/internal/bitvec"
	"gsim/internal/ir"
)

// Load parses and elaborates FIRRTL source into a validated graph.
func Load(src string) (*ir.Graph, error) {
	c, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Elaborate(c)
}

// LoadFile loads a .fir file.
func LoadFile(path string) (*ir.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := Load(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return g, nil
}

// Elaborate flattens the circuit's module hierarchy into a single graph:
// instances are inlined with dotted name prefixes, when/else blocks fold
// into mux trees with last-connect-wins semantics, and memories become
// ir.Memory objects with combinational read and synchronous write ports.
func Elaborate(c *Circuit) (*ir.Graph, error) {
	e := &elab{circ: c, g: ir.NewGraph(c.Name)}
	top := c.Modules[c.Name]
	if _, err := e.module(top, "", true, nil); err != nil {
		return nil, err
	}
	e.g.Compact()
	if err := e.g.Validate(); err != nil {
		return nil, fmt.Errorf("firrtl: elaborated graph invalid: %v", err)
	}
	return e.g, nil
}

// sig is a named signal during elaboration: a value (ir node + signedness)
// and, when connectable, an accumulating list of conditional connects.
type sig struct {
	node   *ir.Node
	signed bool

	connectable bool
	conns       []conn
	isReg       bool
	hasReset    bool
	resetExpr   *ir.Expr
	initExpr    *ir.Expr
	initSigned  bool
	line        int
}

type conn struct {
	cond *ir.Expr // nil when unconditional
	val  *ir.Expr
	sgn  bool
}

type elab struct {
	circ  *Circuit
	g     *ir.Graph
	depth int
}

// value is an elaborated expression with signedness.
type value struct {
	e      *ir.Expr
	signed bool
}

type env map[string]*sig

// module elaborates one module under the given name prefix. When top is
// true, input ports become graph inputs and output ports become observable
// outputs; otherwise ports are wires bound into the parent's environment via
// portsOut. Returns the module's port signals keyed by port name.
func (e *elab) module(m *Module, prefix string, top bool, _ env) (map[string]*sig, error) {
	e.depth++
	defer func() { e.depth-- }()
	if e.depth > 64 {
		return nil, fmt.Errorf("module %s: instance nesting too deep (recursive instantiation?)", m.Name)
	}
	vars := env{}
	ports := map[string]*sig{}
	for _, p := range m.Ports {
		w := p.Type.Width
		if w <= 0 {
			return nil, fmt.Errorf("module %s port %s: explicit width required", m.Name, p.Name)
		}
		var s *sig
		if top && p.Input {
			n := e.g.AddNode(&ir.Node{Name: prefix + p.Name, Kind: ir.KindInput, Width: w})
			s = &sig{node: n, signed: p.Type.Signed()}
		} else {
			// Wire-like: inputs of instances are driven by the parent;
			// outputs are driven inside the module.
			n := e.g.AddNode(&ir.Node{Name: prefix + p.Name, Kind: ir.KindComb, Width: w})
			s = &sig{node: n, signed: p.Type.Signed(), connectable: true, line: p.Line}
			if top && !p.Input {
				n.IsOutput = true
			}
		}
		vars[p.Name] = s
		ports[p.Name] = s
	}
	if err := e.stmts(m, m.Body, prefix, vars, nil); err != nil {
		return nil, err
	}
	// Resolve all connect targets declared in this module.
	for name, s := range vars {
		if !s.connectable {
			continue
		}
		if err := e.resolve(prefix+name, s); err != nil {
			return nil, err
		}
	}
	return ports, nil
}

// resolve folds a signal's conditional connects into its final expression.
func (e *elab) resolve(name string, s *sig) error {
	w := s.node.Width
	var folded *ir.Expr
	if s.isReg {
		folded = ir.Ref(s.node) // registers hold their value by default
	} else {
		folded = ir.ConstUint(w, 0) // invalid / unconnected reads as zero
	}
	for _, cn := range s.conns {
		val := fitSigned(cn.val, w, cn.sgn)
		if cn.cond == nil {
			folded = val
		} else {
			folded = ir.MuxOf(cn.cond.Clone(), val, folded) // every connect of the block holds the same cond
		}
	}
	if s.isReg {
		if s.hasReset {
			folded = ir.MuxOf(s.resetExpr, fitSigned(s.initExpr, w, s.initSigned), folded)
		}
		s.node.Expr = folded
		return nil
	}
	if s.node.Kind == ir.KindMemWrite {
		return fmt.Errorf("internal: memwrite target %s resolved twice", name)
	}
	s.node.Expr = folded
	return nil
}

// fitSigned adjusts an expression to the target width: sign-extending when
// the source is signed, zero-extending otherwise.
func fitSigned(x *ir.Expr, w int, signed bool) *ir.Expr {
	switch {
	case x.Width == w:
		return x
	case x.Width < w:
		if signed {
			return &ir.Expr{Op: ir.OpSExt, Args: []*ir.Expr{x}, Width: w}
		}
		return &ir.Expr{Op: ir.OpPad, Args: []*ir.Expr{x}, Width: w}
	default:
		return ir.BitsOf(x, w-1, 0)
	}
}

func (e *elab) stmts(m *Module, body []Stmt, prefix string, vars env, cond *ir.Expr) error {
	for _, st := range body {
		if err := e.stmt(m, st, prefix, vars, cond); err != nil {
			return err
		}
	}
	return nil
}

func (e *elab) stmt(m *Module, st Stmt, prefix string, vars env, cond *ir.Expr) error {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("module %s line %d: %s", m.Name, st.stmtLine(), fmt.Sprintf(format, args...))
	}
	declare := func(name string, s *sig) error {
		if _, dup := vars[name]; dup {
			return fail("redeclaration of %q", name)
		}
		vars[name] = s
		return nil
	}
	switch s := st.(type) {
	case *SkipStmt:
		return nil

	case *WireStmt:
		if s.Type.Width <= 0 {
			return fail("wire %s: explicit width required", s.Name)
		}
		n := e.g.AddNode(&ir.Node{Name: prefix + s.Name, Kind: ir.KindComb, Width: s.Type.Width})
		return declare(s.Name, &sig{node: n, signed: s.Type.Signed(), connectable: true, line: s.Line})

	case *RegStmt:
		if s.Type.Width <= 0 {
			return fail("reg %s: explicit width required", s.Name)
		}
		w := s.Type.Width
		n := e.g.AddNode(&ir.Node{Name: prefix + s.Name, Kind: ir.KindReg, Width: w, Init: bitvec.New(w)})
		sg := &sig{node: n, signed: s.Type.Signed(), connectable: true, isReg: true, line: s.Line}
		if s.HasReset {
			rv, err := e.expr(m, s.ResetSig, vars)
			if err != nil {
				return err
			}
			iv, err := e.expr(m, s.Init, vars)
			if err != nil {
				return err
			}
			// Self-referential init (reset => (rst, r)) means "hold on
			// reset": equivalent to no reset behavior.
			if ref, ok := s.Init.(*RefExpr); ok && ref.Name == s.Name {
				return declare(s.Name, sg)
			}
			sg.hasReset = true
			sg.resetExpr = fitSigned(rv.e, 1, false)
			sg.initExpr = iv.e
			sg.initSigned = iv.signed
			if iv.e.IsConst() {
				n.Init = bitvec.Pad(iv.e.FoldConst(), w)
			}
		}
		return declare(s.Name, sg)

	case *NodeStmt:
		v, err := e.expr(m, s.Expr, vars)
		if err != nil {
			return err
		}
		n := e.g.AddNode(&ir.Node{Name: prefix + s.Name, Kind: ir.KindComb, Width: v.e.Width, Expr: v.e})
		return declare(s.Name, &sig{node: n, signed: v.signed})

	case *ConnectStmt:
		tgt, ok := vars[s.Target]
		if !ok {
			return fail("connect to undeclared signal %q", s.Target)
		}
		if !tgt.connectable {
			return fail("%q is not a connectable target", s.Target)
		}
		v, err := e.expr(m, s.Value, vars)
		if err != nil {
			return err
		}
		tgt.conns = append(tgt.conns, conn{cond: cond, val: v.e, sgn: v.signed})
		return nil

	case *InvalidStmt:
		tgt, ok := vars[s.Target]
		if !ok {
			return fail("invalidating undeclared signal %q", s.Target)
		}
		_ = tgt // invalid targets simply read as zero when unconnected
		return nil

	case *WhenStmt:
		cv, err := e.expr(m, s.Cond, vars)
		if err != nil {
			return err
		}
		c := fitSigned(cv.e, 1, false)
		// Copies, not aliases: the passes need every tree to have one owner.
		thenCond, elseCond := c, ir.Unary(ir.OpNot, c.Clone(), 0)
		if cond != nil {
			thenCond = ir.Binary(ir.OpAnd, cond.Clone(), thenCond)
			elseCond = ir.Binary(ir.OpAnd, cond.Clone(), elseCond)
		}
		if err := e.stmts(m, s.Then, prefix, vars, thenCond); err != nil {
			return err
		}
		if len(s.Else) > 0 {
			return e.stmts(m, s.Else, prefix, vars, elseCond)
		}
		return nil

	case *InstStmt:
		sub, ok := e.circ.Modules[s.Module]
		if !ok {
			return fail("instance of unknown module %q", s.Module)
		}
		ports, err := e.module(sub, prefix+s.Name+".", false, nil)
		if err != nil {
			return err
		}
		for pname, psig := range ports {
			if err := declare(s.Name+"."+pname, psig); err != nil {
				return err
			}
		}
		return nil

	case *MemStmt:
		return e.memStmt(m, s, prefix, vars, fail)
	}
	return fail("unsupported statement %T", st)
}

func (e *elab) memStmt(m *Module, s *MemStmt, prefix string, vars env, fail func(string, ...interface{}) error) error {
	if s.Depth <= 0 || s.DataType.Width <= 0 {
		return fail("mem %s: depth and data-type required", s.Name)
	}
	if s.ReadLatency != 0 || s.WriteLatency != 1 {
		return fail("mem %s: only read-latency 0 / write-latency 1 supported", s.Name)
	}
	mem := e.g.AddMem(&ir.Memory{Name: prefix + s.Name, Depth: s.Depth, Width: s.DataType.Width})
	aw := mem.AddrWidth()
	declWire := func(field string, w int) *sig {
		n := e.g.AddNode(&ir.Node{Name: prefix + s.Name + "." + field, Kind: ir.KindComb, Width: w})
		sg := &sig{node: n, connectable: true, line: s.Line}
		vars[s.Name+"."+field] = sg
		return sg
	}
	for _, r := range s.Readers {
		addr := declWire(r+".addr", aw)
		declWire(r+".en", 1)
		declWire(r+".clk", 1)
		data := e.g.AddNode(&ir.Node{
			Name: prefix + s.Name + "." + r + ".data", Kind: ir.KindMemRead,
			Width: mem.Width, Mem: mem, Expr: ir.Ref(addr.node),
		})
		vars[s.Name+"."+r+".data"] = &sig{node: data, signed: s.DataType.Signed()}
	}
	for _, w := range s.Writers {
		addr := declWire(w+".addr", aw)
		en := declWire(w+".en", 1)
		declWire(w+".clk", 1)
		data := declWire(w+".data", mem.Width)
		mask := declWire(w+".mask", 1)
		// An unconnected mask enables the whole write (Chisel always drives
		// it; hand-written FIRRTL usually omits it).
		mask.conns = append(mask.conns, conn{val: ir.ConstUint(1, 1)})
		// The write port reads the resolved port wires; mask folds into the
		// enable (only 1-bit masks are supported).
		e.g.AddNode(&ir.Node{
			Name: prefix + s.Name + "." + w, Kind: ir.KindMemWrite,
			Width: mem.Width, Mem: mem,
			WAddr: ir.Ref(addr.node),
			WData: ir.Ref(data.node),
			WEn:   ir.Binary(ir.OpAnd, ir.Ref(en.node), ir.Ref(mask.node)),
		})
	}
	return nil
}
