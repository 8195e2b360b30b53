package emit

import (
	"fmt"
	"math/bits"

	"gsim/internal/bitvec"
)

// Machine is one executable instance of a Program: a private state image and
// memory arrays. Multiple machines can run the same Program concurrently.
// The image is the program's StateWords persistent words, its NextWords
// next values, then one temporary region of TempWords words per worker of
// the engine that owns the machine.
type Machine struct {
	Prog  *Program
	State []uint64
	Mems  [][]uint64

	// Executed counts instructions retired since the owning engine's last
	// Reset. Engines add range lengths from serial context (per step or at the
	// end-of-cycle stat merge) so the hot loops stay branch-free and the
	// counter stays race-free and accurate whatever stream mode runs.
	Executed uint64
}

// NewMachine instantiates a one-worker machine with the program's initial
// image.
func NewMachine(p *Program) *Machine { return NewMachineRegions(p, 1) }

// NewMachineRegions instantiates a machine with the program's initial image
// and the given number of temporary regions, one per worker.
func NewMachineRegions(p *Program, regions int) *Machine {
	m := &Machine{Prog: p, State: make([]uint64, p.NumWords+(max(regions, 1)-1)*p.TempWords)}
	copy(m.State, p.Init)
	m.Mems = make([][]uint64, len(p.Mems))
	for i := range p.Mems {
		m.Mems[i] = make([]uint64, len(p.Mems[i].Init))
		copy(m.Mems[i], p.Mems[i].Init)
	}
	return m
}

// Reset restores the initial state image and memory contents. It copies
// only the persistent words: next values and temporaries are written
// before they are read inside a Step, so their regions need no reset.
func (m *Machine) Reset() {
	copy(m.State, m.Prog.Init)
	for i := range m.Mems {
		copy(m.Mems[i], m.Prog.Mems[i].Init)
	}
}

// mask returns the canonical mask for a width <= 64.
func mask(w int32) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// Exec runs instructions [start, end) against the machine state, their
// temporaries in the first region.
func (m *Machine) Exec(start, end int32) { m.execIn(start, end, 0) }

// execIn runs instructions [start, end) with their temporaries moved shift
// words on, into another worker's region.
func (m *Machine) execIn(start, end, shift int32) {
	st := m.State
	ins := m.Prog.Instrs
	from := int32(m.Prog.TempBase())
	for i := start; i < end; i++ {
		in := ins[i]
		if shift != 0 {
			in.relocate(from, shift)
		}
		if in.DW <= 64 && in.AW <= 64 && in.BW <= 64 {
			m.execNarrow(st, &in)
		} else {
			m.execWide(&in)
		}
	}
}

// execNarrow handles instructions whose operands and result all fit in one
// word. This is the fast path covering nearly all instructions in processor
// designs.
func (m *Machine) execNarrow(st []uint64, in *Instr) {
	a := st[in.A]
	var b uint64
	if in.Op >= CAdd { // all binaries read B; unaries ignore garbage B=st[0]
		b = st[in.B]
	}
	var r uint64
	switch in.Op {
	case CCopy:
		r = a
	case CAdd:
		r = a + b
	case CSub:
		r = a - b
	case CMul:
		r = a * b
	case CDiv:
		if b == 0 {
			r = 0
		} else {
			r = a / b
		}
	case CRem:
		if b == 0 {
			r = 0
		} else {
			r = a % b
		}
	case CNeg:
		r = -a
	case CAnd:
		r = a & b
	case COr:
		r = a | b
	case CXor:
		r = a ^ b
	case CNot:
		r = ^a
	case CAndR:
		if a == mask(in.AW) {
			r = 1
		}
	case COrR:
		if a != 0 {
			r = 1
		}
	case CXorR:
		r = uint64(bits.OnesCount64(a)) & 1
	case CEq:
		if a == b {
			r = 1
		}
	case CNeq:
		if a != b {
			r = 1
		}
	case CLt:
		if a < b {
			r = 1
		}
	case CLeq:
		if a <= b {
			r = 1
		}
	case CGt:
		if a > b {
			r = 1
		}
	case CGeq:
		if a >= b {
			r = 1
		}
	case CSLt:
		if sext64(a, in.AW) < sext64(b, in.BW) {
			r = 1
		}
	case CSLeq:
		if sext64(a, in.AW) <= sext64(b, in.BW) {
			r = 1
		}
	case CSGt:
		if sext64(a, in.AW) > sext64(b, in.BW) {
			r = 1
		}
	case CSGeq:
		if sext64(a, in.AW) >= sext64(b, in.BW) {
			r = 1
		}
	case CShl:
		if in.Lo < 64 {
			r = a << uint(in.Lo)
		}
	case CShr:
		if in.Lo < 64 {
			r = a >> uint(in.Lo)
		}
	case CDshl:
		if b < 64 {
			r = a << uint(b)
		}
	case CDshr:
		if b < 64 {
			r = a >> uint(b)
		}
	case CCat:
		r = a<<uint(in.BW) | b
	case CBits:
		r = a >> uint(in.Lo)
	case CSExt:
		r = uint64(sext64(a, in.AW))
	case CMux:
		if a != 0 {
			r = st[in.B]
		} else {
			r = st[in.C]
		}
	case CMemRead:
		spec := &m.Prog.Mems[in.Lo]
		if a < uint64(spec.Depth) {
			r = m.Mems[in.Lo][int32(a)*spec.WordsPer]
		}
	default:
		panic(fmt.Sprintf("emit: bad narrow opcode %d", in.Op))
	}
	st[in.D] = r & mask(in.DW)
}

// sext64 sign-extends a w-bit value to int64.
func sext64(v uint64, w int32) int64 {
	if w >= 64 || w <= 0 {
		return int64(v)
	}
	sh := uint(64 - w)
	return int64(v<<sh) >> sh
}

// PeekWords returns the node's current-value words (aliasing machine state).
func (m *Machine) PeekWords(nodeID int) []uint64 {
	off := m.Prog.Off[nodeID]
	return m.State[off : off+m.Prog.WordsOf[nodeID]]
}

// Peek returns the node's current value as a BV.
func (m *Machine) Peek(nodeID int) bitvec.BV {
	n := m.Prog.Graph.Nodes[nodeID]
	return bitvec.FromWords(n.Width, m.PeekWords(nodeID))
}

// Poke overwrites an input node's value, truncating to its width, and
// reports whether the value changed.
func (m *Machine) Poke(nodeID int, v bitvec.BV) bool {
	n := m.Prog.Graph.Nodes[nodeID]
	w := bitvec.Pad(v, n.Width)
	off := m.Prog.Off[nodeID]
	changed := false
	for i, word := range w.W {
		if m.State[off+int32(i)] != word {
			changed = true
			m.State[off+int32(i)] = word
		}
	}
	return changed
}

// PeekMem returns one element of a memory.
func (m *Machine) PeekMem(memID, addr int) bitvec.BV {
	spec := &m.Prog.Mems[memID]
	off := int32(addr) * spec.WordsPer
	return bitvec.FromWords(spec.Width, m.Mems[memID][off:off+spec.WordsPer])
}

// PokeMem overwrites one element of a memory.
func (m *Machine) PokeMem(memID, addr int, v bitvec.BV) {
	spec := &m.Prog.Mems[memID]
	w := bitvec.Pad(v, spec.Width)
	copy(m.Mems[memID][int32(addr)*spec.WordsPer:], w.W)
}
