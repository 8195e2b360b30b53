// Package firrtl is GSIM's frontend: an indentation-aware lexer and parser
// for a FIRRTL subset, and an elaborator that flattens the module hierarchy
// into an ir.Graph (paper §III-D: "GSIM includes a Firrtl parser that
// converts the input design into an abstract syntax tree and further
// transforms it into a graph").
//
// Supported subset (documented deviations from the full spec):
//   - circuit/module with input/output ports of UInt<w>, SInt<w>, Clock,
//     Reset, AsyncReset types (clocks are accepted and ignored; the engines
//     are full-cycle);
//   - wire, node, reg (with `with : (reset => (sig, init))`), regreset;
//   - mem blocks with data-type/depth/read-latency 0/write-latency 1 and
//     named reader/writer ports;
//   - inst/of with full flattening;
//   - when/else with last-connect semantics;
//   - connects (<=), is invalid, skip; stop/printf/assert parsed and ignored;
//   - all two-operand and one-operand primops of the spec except signed
//     division/remainder and signed dynamic right shift.
//
// Widths must be explicit on ports, wires, and registers (no global width
// inference); expression widths follow the spec rules.
package firrtl

import (
	"fmt"
	"strings"
)

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokNewline
	tokIndent
	tokDedent
	tokIdent  // identifiers and keywords
	tokInt    // decimal integer literal
	tokString // quoted string
	tokPunct  // one of : , ( ) < > = . or multi-char <= =>
)

// token is one lexeme. text slices the source string, so lexing copies no
// bytes; the struct is kept to 24 bytes because a large design has over a
// million of them alive while it parses.
type token struct {
	kind tokKind
	line int32
	text string
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "EOF"
	case tokNewline:
		return "newline"
	case tokIndent:
		return "indent"
	case tokDedent:
		return "dedent"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lex tokenizes FIRRTL source, emitting INDENT/DEDENT tokens from leading
// whitespace the way the format requires.
func lex(src string) ([]token, error) {
	// Generated and hand-written FIRRTL both run a little over three bytes
	// per token; sizing for three means the slice is allocated once.
	toks := make([]token, 0, len(src)/3+16)
	indents := []int{0}
	lineNo := int32(0)
	for rest, more := src, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		lineNo++
		// Strip comments and file-info annotations (@[...]).
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "@["); i >= 0 {
			line = line[:i]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if line[indent] == '\t' {
			return nil, fmt.Errorf("line %d: tabs not supported in indentation", lineNo)
		}
		// Emit indent/dedent.
		cur := indents[len(indents)-1]
		switch {
		case indent > cur:
			indents = append(indents, indent)
			toks = append(toks, token{kind: tokIndent, line: lineNo})
		case indent < cur:
			for len(indents) > 1 && indents[len(indents)-1] > indent {
				indents = indents[:len(indents)-1]
				toks = append(toks, token{kind: tokDedent, line: lineNo})
			}
			if indents[len(indents)-1] != indent {
				return nil, fmt.Errorf("line %d: inconsistent indentation %d", lineNo, indent)
			}
		}
		// Tokenize the content.
		i := indent
		for i < len(line) {
			c := line[i]
			kind, j := tokPunct, i+1
			switch {
			case c == ' ' || c == '\t':
				i++
				continue
			case isIdentStart(c):
				kind = tokIdent
				for j < len(line) && isIdentChar(line[j]) {
					j++
				}
			case isDigit(c) || c == '-' && j < len(line) && isDigit(line[j]):
				kind = tokInt
				for j < len(line) && isDigit(line[j]) {
					j++
				}
			case c == '"':
				for j < len(line) && line[j] != '"' {
					if line[j] == '\\' {
						j++
					}
					j++
				}
				if j >= len(line) {
					return nil, fmt.Errorf("line %d: unterminated string", lineNo)
				}
				toks = append(toks, token{kind: tokString, text: line[i+1 : j], line: lineNo})
				i = j + 1
				continue
			case c == '<' && j < len(line) && line[j] == '=', c == '=' && j < len(line) && line[j] == '>':
				j++
			case strings.IndexByte(":,()<>=.[]", c) >= 0:
			default:
				return nil, fmt.Errorf("line %d: unexpected character %q", lineNo, c)
			}
			toks = append(toks, token{kind: kind, text: line[i:j], line: lineNo})
			i = j
		}
		toks = append(toks, token{kind: tokNewline, line: lineNo})
	}
	for len(indents) > 1 {
		indents = indents[:len(indents)-1]
		toks = append(toks, token{kind: tokDedent, line: lineNo})
	}
	toks = append(toks, token{kind: tokEOF, line: lineNo})
	return toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '$'
}

// isIdentChar additionally accepts '-' so hyphenated mem keys (data-type,
// read-latency, ...) lex as single identifiers. FIRRTL identifiers proper
// never contain '-', and negative literals always follow punctuation, so
// this is unambiguous.
func isIdentChar(c byte) bool {
	return isIdentStart(c) || isDigit(c) || c == '-'
}
