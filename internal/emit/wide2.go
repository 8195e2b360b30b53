package emit

// Width classes. The kernel compiler picks the cheapest evaluation strategy
// an instruction's operand and result widths allow:
//
//   - WCNarrow: everything fits one word — the opcode's generated kernel
//     (narrowKernels), masks computed from the record's widths.
//   - WC2Word: the 65–128-bit class — a dedicated two-word kernel
//     (kernels2W), so mid-width datapaths (wide buses, 128-bit stimulus
//     registers) skip the generic word loop.
//   - WCWide: anything else — the interpreter's multi-word path (execWide).
//
// The class of an instruction is a pure function of its opcode and widths
// (classOf); the width-class coverage test sweeps every opcode against the
// classification so a new opcode or class cannot land untested.
type WidthClass uint8

// Width-class enumeration. numWidthClasses is the sentinel: keep it last.
const (
	WCNarrow WidthClass = iota
	WC2Word
	WCWide

	numWidthClasses
)

var widthClassNames = [numWidthClasses]string{"narrow", "2word", "wide"}

// String names the class.
func (c WidthClass) String() string {
	if int(c) < len(widthClassNames) {
		return widthClassNames[c]
	}
	return "invalid"
}

// classOf classifies an instruction by the evaluation strategy the stream
// builder (Stream.window) selects for it.
func classOf(in Instr) WidthClass {
	if in.DW <= 64 && in.AW <= 64 && in.BW <= 64 {
		return WCNarrow
	}
	if is2Word(in) {
		return WC2Word
	}
	return WCWide
}

// is2Word reports whether the instruction qualifies for a dedicated two-word
// kernel. The supported set mirrors what mid-width datapaths actually use:
// copy, add, sub, and, or, xor, not, mux (two-word results) and eq, neq
// (one-bit results over operands up to 128 bits). Everything else in the
// wide regime (shifts, cat, bit slices, reductions, multiplies, ...) stays on
// execWide.
func is2Word(in Instr) bool {
	switch in.Op {
	case CCopy, CNot:
		return wordsFor32(in.DW) == 2
	case CAdd, CSub, CAnd, COr, CXor:
		return wordsFor32(in.DW) == 2
	case CMux:
		// A is the one-word selector; both arms share BW and may be any
		// width (reads truncate to the two result words, as execWide does).
		return wordsFor32(in.DW) == 2 && in.AW <= 64
	case CEq, CNeq:
		return in.AW <= 128 && in.BW <= 128
	}
	return false
}
