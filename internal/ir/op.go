// Package ir defines the dataflow-graph intermediate representation GSIM
// operates on: a directed graph whose nodes are registers, combinational
// signals, and memory ports, and whose node values are expression trees over
// FIRRTL-style primitive operations.
//
// The IR follows the paper's model directly: "each node corresponds to a
// register or logic unit, and each edge represents the propagation of signals
// between nodes" (§II-A). Registers are two-phase (a current value read by
// combinational logic and a next value computed during the cycle), which
// breaks all cycles and makes the graph a DAG.
package ir

import "fmt"

// Op identifies a primitive operation inside an expression tree. The set
// mirrors the FIRRTL primops GSIM accepts, plus Ref (read another node's
// value) and Const.
type Op uint8

// Expression operators.
const (
	OpInvalid Op = iota
	OpRef        // value of another node
	OpConst      // literal

	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpNeg

	OpAnd
	OpOr
	OpXor
	OpNot
	OpAndR
	OpOrR
	OpXorR

	OpEq
	OpNeq
	OpLt
	OpLeq
	OpGt
	OpGeq
	OpSLt
	OpSLeq
	OpSGt
	OpSGeq

	OpShl  // static shift left; amount in Lo
	OpShr  // static shift right; amount in Lo
	OpDshl // dynamic shift left
	OpDshr // dynamic shift right

	OpCat  // {hi: args[0], lo: args[1]}
	OpBits // args[0][Hi:Lo]
	OpPad  // zero-extend to Width
	OpSExt // sign-extend to Width

	OpMux // args[0] ? args[1] : args[2]

	numOps
)

var opNames = [numOps]string{
	OpInvalid: "invalid",
	OpRef:     "ref",
	OpConst:   "const",
	OpAdd:     "add",
	OpSub:     "sub",
	OpMul:     "mul",
	OpDiv:     "div",
	OpRem:     "rem",
	OpNeg:     "neg",
	OpAnd:     "and",
	OpOr:      "or",
	OpXor:     "xor",
	OpNot:     "not",
	OpAndR:    "andr",
	OpOrR:     "orr",
	OpXorR:    "xorr",
	OpEq:      "eq",
	OpNeq:     "neq",
	OpLt:      "lt",
	OpLeq:     "leq",
	OpGt:      "gt",
	OpGeq:     "geq",
	OpSLt:     "slt",
	OpSLeq:    "sleq",
	OpSGt:     "sgt",
	OpSGeq:    "sgeq",
	OpShl:     "shl",
	OpShr:     "shr",
	OpDshl:    "dshl",
	OpDshr:    "dshr",
	OpCat:     "cat",
	OpBits:    "bits",
	OpPad:     "pad",
	OpSExt:    "sext",
	OpMux:     "mux",
}

// String returns the lowercase primop name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Arity returns the number of expression arguments the operator takes.
func (o Op) Arity() int {
	switch o {
	case OpRef, OpConst:
		return 0
	case OpNot, OpNeg, OpAndR, OpOrR, OpXorR, OpShl, OpShr, OpBits, OpPad, OpSExt:
		return 1
	case OpMux:
		return 3
	default:
		return 2
	}
}

// Commutative reports whether the operator's two arguments can be swapped
// without changing the result.
func (o Op) Commutative() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNeq:
		return true
	}
	return false
}

// Cost returns the abstract evaluation cost of one application of the
// operator, in "operator units" — the unit the paper's inline/extract cost
// model is expressed in (§III-B: "in terms of the number of operators
// involved"). Multiplication and division are weighted heavier to reflect
// host-instruction cost; zero-extension is free, because a value is stored
// zero-extended already (package emit compiles most pads to nothing).
func (o Op) Cost() int {
	switch o {
	case OpRef, OpConst, OpPad:
		return 0
	case OpMul:
		return 3
	case OpDiv, OpRem:
		return 6
	default:
		return 1
	}
}

// ResultWidth computes the FIRRTL result width for the operator applied to
// argument widths. n is the static parameter (shift amount for Shl/Shr, the
// target width for Pad/SExt, hi and lo for Bits via hi-lo+1 computed by the
// caller). Binary ops pass both widths; unary ops pass the width in wa.
func ResultWidth(o Op, wa, wb, n int) int {
	max := wa
	if wb > max {
		max = wb
	}
	switch o {
	case OpAdd, OpSub:
		return max + 1
	case OpMul:
		return wa + wb
	case OpDiv:
		return wa
	case OpRem:
		if wa < wb {
			return wa
		}
		return wb
	case OpNeg:
		return wa + 1
	case OpAnd, OpOr, OpXor:
		return max
	case OpNot:
		return wa
	case OpAndR, OpOrR, OpXorR:
		return 1
	case OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq, OpSLt, OpSLeq, OpSGt, OpSGeq:
		return 1
	case OpShl:
		return wa + n
	case OpShr:
		w := wa - n
		if w < 1 {
			w = 1
		}
		return w
	case OpDshl:
		// FIRRTL: wa + 2^wb - 1; capped by callers that know better.
		if wb > 20 {
			panic(fmt.Sprintf("ir: dshl shift-amount width %d too large", wb))
		}
		return wa + (1 << uint(wb)) - 1
	case OpDshr:
		return wa
	case OpCat:
		return wa + wb
	case OpBits:
		return n
	case OpPad, OpSExt:
		if n > wa {
			return n
		}
		return wa
	case OpMux:
		// args[1] and args[2] widths; caller passes them as wa, wb.
		return max
	}
	panic(fmt.Sprintf("ir: ResultWidth on %v", o))
}
