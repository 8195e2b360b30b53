package firrtl

// stmt parses one statement (at current line start).
func (p *parser) stmt() (Stmt, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errf(t, "expected statement, got %s", t)
	}
	base := stmtBase{Line: int(t.line)}
	switch t.text {
	case "wire":
		p.pos++
		name, err := p.ident()
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
		return &WireStmt{stmtBase: base, Name: name, Type: ty}, nil

	case "reg":
		p.pos++
		return p.regStmt(base)

	case "regreset":
		p.pos++
		return p.regresetStmt(base)

	case "node":
		p.pos++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &NodeStmt{stmtBase: base, Name: name, Expr: e}, nil

	case "skip":
		p.pos++
		return &SkipStmt{base}, nil

	case "stop", "printf", "assert", "assume", "cover":
		p.pos++
		if err := p.skipParens(); err != nil {
			return nil, err
		}
		// Optional trailing `: name` label.
		if p.acceptPunct(":") {
			if _, err := p.ident(); err != nil {
				return nil, err
			}
		}
		return &SkipStmt{base}, nil

	case "when":
		p.pos++
		return p.whenStmt(base)

	case "inst":
		p.pos++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectIdent("of"); err != nil {
			return nil, err
		}
		mod, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &InstStmt{stmtBase: base, Name: name, Module: mod}, nil

	case "mem":
		p.pos++
		return p.memStmt(base)
	}

	// Reference statement: `target <= expr` or `target is invalid`.
	target, err := p.dottedRef()
	if err != nil {
		return nil, err
	}
	if p.acceptIdent("is") {
		if err := p.expectIdent("invalid"); err != nil {
			return nil, err
		}
		return &InvalidStmt{stmtBase: base, Target: target}, nil
	}
	if err := p.expectPunct("<="); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &ConnectStmt{stmtBase: base, Target: target, Value: e}, nil
}

// regStmt parses: reg NAME : TYPE, CLOCK [with : (reset => (SIG, INIT))]
// The `with` clause may be inline in parentheses or an indented block.
func (p *parser) regStmt(base stmtBase) (Stmt, error) {
	name, err := p.ident()
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
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	if _, err := p.expr(); err != nil { // clock expression, ignored
		return nil, err
	}
	st := &RegStmt{stmtBase: base, Name: name, Type: ty}
	if !p.acceptIdent("with") {
		return st, nil
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	parenthesized := p.acceptPunct("(")
	if !parenthesized {
		// Indented form.
		p.skipNewlines()
		if _, err := p.expectKind(tokIndent); err != nil {
			return nil, err
		}
	}
	if err := p.expectIdent("reset"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("=>"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	sig, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	init, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if parenthesized {
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	} else {
		p.skipNewlines()
		if _, err := p.expectKind(tokDedent); err != nil {
			return nil, err
		}
	}
	st.HasReset = true
	st.ResetSig = sig
	st.Init = init
	return st, nil
}

// regresetStmt parses the FIRRTL 3.x form:
// regreset NAME : TYPE, CLOCK, RESET, INIT
func (p *parser) regresetStmt(base stmtBase) (Stmt, error) {
	name, err := p.ident()
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
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	if _, err := p.expr(); err != nil { // clock
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	sig, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	init, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &RegStmt{stmtBase: base, Name: name, Type: ty, HasReset: true, ResetSig: sig, Init: init}, nil
}

func (p *parser) whenStmt(base stmtBase) (Stmt, error) {
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	thenBlk, err := p.stmtBlock()
	if err != nil {
		return nil, err
	}
	st := &WhenStmt{stmtBase: base, Cond: cond, Then: thenBlk}
	p.skipNewlines()
	if p.acceptIdent("else") {
		if p.peek().kind == tokIdent && p.peek().text == "when" {
			// else when ... : chained conditional.
			p.pos++
			inner, err := p.whenStmt(stmtBase{Line: int(p.peek().line)})
			if err != nil {
				return nil, err
			}
			st.Else = []Stmt{inner}
		} else {
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			elseBlk, err := p.stmtBlock()
			if err != nil {
				return nil, err
			}
			st.Else = elseBlk
		}
	}
	return st, nil
}

// memStmt parses an indented mem block.
func (p *parser) memStmt(base stmtBase) (Stmt, error) {
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
	st := &MemStmt{stmtBase: base, Name: name, WriteLatency: 1}
	for {
		p.skipNewlines()
		if p.peek().kind == tokDedent {
			p.pos++
			break
		}
		key, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("=>"); err != nil {
			return nil, err
		}
		switch key {
		case "data-type":
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			st.DataType = ty
		case "depth":
			d, err := p.intLit()
			if err != nil {
				return nil, err
			}
			st.Depth = d
		case "read-latency":
			v, err := p.intLit()
			if err != nil {
				return nil, err
			}
			st.ReadLatency = v
		case "write-latency":
			v, err := p.intLit()
			if err != nil {
				return nil, err
			}
			st.WriteLatency = v
		case "reader":
			r, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Readers = append(st.Readers, r)
		case "writer":
			w, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Writers = append(st.Writers, w)
		case "read-under-write":
			if _, err := p.ident(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf(p.peek(), "unsupported mem field %q", key)
		}
	}
	return st, nil
}

// skipParens consumes a balanced parenthesized argument list.
func (p *parser) skipParens() error {
	if err := p.expectPunct("("); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		t := p.next()
		if t.kind == tokEOF {
			return p.errf(t, "unterminated argument list")
		}
		if t.kind == tokPunct {
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
			}
		}
	}
	return nil
}

// dottedRef parses name(.name)*, allowing numeric fields.
func (p *parser) dottedRef() (string, error) {
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	for p.acceptPunct(".") {
		t := p.next()
		if t.kind != tokIdent && t.kind != tokInt {
			return "", p.errf(t, "expected field name, got %s", t)
		}
		name += "." + t.text
	}
	return name, nil
}
