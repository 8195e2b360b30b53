package firrtl

import "strconv"

// primops taking expression arguments; trailing integer parameters are
// collected separately.
var primOps = map[string]bool{
	"add": true, "sub": true, "mul": true, "div": true, "rem": true,
	"lt": true, "leq": true, "gt": true, "geq": true, "eq": true, "neq": true,
	"pad": true, "shl": true, "shr": true, "dshl": true, "dshr": true,
	"cvt": true, "neg": true, "not": true, "and": true, "or": true, "xor": true,
	"andr": true, "orr": true, "xorr": true, "cat": true, "bits": true,
	"head": true, "tail": true, "mux": true, "validif": true,
	"asUInt": true, "asSInt": true, "asClock": true, "asAsyncReset": true,
}

// expr parses one expression.
func (p *parser) expr() (Expr, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errf(t, "expected expression, got %s", t)
	}
	base := exprBase{Line: int(t.line)}

	// Literals: UInt<8>("hff"), UInt(3), SInt<4>(-2).
	if t.text == "UInt" || t.text == "SInt" {
		save := p.pos
		p.pos++
		ty := Type{Kind: TyUInt, Width: -1}
		if t.text == "SInt" {
			ty.Kind = TySInt
		}
		if p.acceptPunct("<") {
			w, err := p.intLit()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(">"); err != nil {
				return nil, err
			}
			ty.Width = w
		}
		if !p.acceptPunct("(") {
			// Not a literal after all (e.g. a signal named UInt — illegal
			// anyway); restore and fall through to reference parsing.
			p.pos = save
		} else {
			lit := &LitExpr{exprBase: base, Type: ty}
			vt := p.next()
			switch vt.kind {
			case tokString:
				lit.Val = vt.text
			case tokInt:
				v := vt.text
				if len(v) > 0 && v[0] == '-' {
					lit.Neg = true
					v = v[1:]
				}
				lit.Val = v
			default:
				return nil, p.errf(vt, "expected literal value, got %s", vt)
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return lit, nil
		}
	}

	// Primop application.
	if primOps[t.text] && p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == "(" {
		p.pos += 2
		prim := &PrimExpr{exprBase: base, Op: t.text}
		for {
			at := p.peek()
			if at.kind == tokInt {
				p.pos++
				v, err := strconv.Atoi(at.text)
				if err != nil {
					return nil, p.errf(at, "bad integer %q", at.text)
				}
				prim.IntArgs = append(prim.IntArgs, v)
			} else {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				prim.Args = append(prim.Args, e)
			}
			if p.acceptPunct(",") {
				continue
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			break
		}
		return prim, nil
	}

	// Dotted reference.
	name, err := p.dottedRef()
	if err != nil {
		return nil, err
	}
	return &RefExpr{exprBase: base, Name: name}, nil
}
