// Gang execution: K independent stimulus lanes through one compiled Program.
//
// A GangMachine holds K machine images in struct-of-arrays layout — state word
// w of lane l lives at State[w*K+l], memory word j of lane l at Mems[m][j*K+l]
// — so one instruction dispatch sweeps a contiguous run of K lane values. This
// amortizes the per-instruction overhead (kernel call, operand decode) that a
// scalar Machine pays once per lane, the CPU analogue of GPU batch simulation:
// most real traffic against a hot design is the same compiled program under
// different inputs.
//
// Gang kernels come in two shapes per instruction:
//   - the dense path, taken when every lane is selected, runs a tight
//     bounds-check-eliminated loop over the K-wide lane slices;
//   - the masked path, taken when lanes have diverged (parked lanes, per-lane
//     restore), gathers one lane into a scalar scratch Machine, runs the
//     reference execNarrow/execWide, and scatters the result back — bit-exact
//     by construction, paid only by the lanes actually selected.
//
// 1-bit control signals additionally pack bit-parallel across lanes: PackBits
// collapses a 1-bit signal's K lane words into one uint64 lane mask, so
// engines decide per-lane control (write enables, reset signals) with single
// word ops against the liveness mask instead of K branches.
package emit

import (
	"fmt"
	"math/bits"

	"gsim/internal/bitvec"
)

// MaxGangLanes bounds a gang's lane count: lane masks are one uint64.
const MaxGangLanes = 64

// GangFullMask returns the all-lanes-selected mask for k lanes.
func GangFullMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(k)) - 1
}

// GangFn executes one compiled instruction across the lanes selected by mask
// (bit l selects lane l). Kernels are compiled per (Program, lane count) and
// shared by every GangMachine of that shape, so they close over offsets only
// and receive the machine explicitly.
type GangFn func(gm *GangMachine, mask uint64)

// GangMachine is K executable instances of a Program in lane-strided
// struct-of-arrays layout. Lanes share nothing but the read-only Program.
type GangMachine struct {
	Prog *Program
	K    int
	// State holds NumWords*K words: state word w of lane l at w*K+l.
	State []uint64
	// Mems holds each memory lane-strided: memory word j of lane l at j*K+l.
	Mems [][]uint64
	// Executed counts instructions retired across all lanes (lane-cycles ×
	// instructions); engines add from serial context like Machine.Executed.
	Executed uint64

	// scratch is a scalar image used by the masked/wide fallback: one lane's
	// operands gather in, the reference interpreter runs, the result scatters
	// back. Never holds live state between instructions.
	scratch *Machine
}

// NewGangMachine instantiates k lanes of the program's initial image.
func NewGangMachine(p *Program, k int) *GangMachine {
	if k < 1 || k > MaxGangLanes {
		panic(fmt.Sprintf("emit: gang lane count %d outside [1,%d]", k, MaxGangLanes))
	}
	gm := &GangMachine{
		Prog:    p,
		K:       k,
		State:   make([]uint64, p.NumWords*k),
		Mems:    make([][]uint64, len(p.Mems)),
		scratch: &Machine{Prog: p, State: make([]uint64, p.NumWords)},
	}
	for i := range p.Mems {
		gm.Mems[i] = make([]uint64, len(p.Mems[i].Init)*k)
	}
	gm.Reset()
	return gm
}

// Reset restores every lane to the initial image and clears the counter.
func (gm *GangMachine) Reset() {
	broadcastLanes(gm.State, gm.Prog.Init, gm.K)
	for i := range gm.Mems {
		broadcastLanes(gm.Mems[i], gm.Prog.Mems[i].Init, gm.K)
	}
	gm.Executed = 0
}

// ResetLane restores one lane to the initial image, leaving the others alone.
func (gm *GangMachine) ResetLane(l int) {
	injectLane(gm.State, gm.Prog.Init, gm.K, l)
	for i := range gm.Mems {
		injectLane(gm.Mems[i], gm.Prog.Mems[i].Init, gm.K, l)
	}
}

// broadcastLanes writes src[j] into all k lane slots of word j.
func broadcastLanes(dst, src []uint64, k int) {
	for j, v := range src {
		lane := dst[j*k : (j+1)*k]
		for l := range lane {
			lane[l] = v
		}
	}
}

// injectLane writes a scalar image into one lane's strided slots.
func injectLane(dst, src []uint64, k, l int) {
	for j, v := range src {
		dst[j*k+l] = v
	}
}

// extractLane reads one lane's strided slots into a scalar image.
func extractLane(dst, src []uint64, k, l int) {
	for j := range dst {
		dst[j] = src[j*k+l]
	}
}

// ExtractLane copies lane l's state image into dst (NumWords words).
func (gm *GangMachine) ExtractLane(l int, dst []uint64) { extractLane(dst, gm.State, gm.K, l) }

// InjectLane overwrites lane l's state image from src (NumWords words).
func (gm *GangMachine) InjectLane(l int, src []uint64) { injectLane(gm.State, src, gm.K, l) }

// ExtractLaneMem copies lane l's image of memory mi into dst.
func (gm *GangMachine) ExtractLaneMem(mi, l int, dst []uint64) {
	extractLane(dst, gm.Mems[mi], gm.K, l)
}

// InjectLaneMem overwrites lane l's image of memory mi from src.
func (gm *GangMachine) InjectLaneMem(mi, l int, src []uint64) { injectLane(gm.Mems[mi], src, gm.K, l) }

// LanePeek returns a node's current value in lane l.
func (gm *GangMachine) LanePeek(l, nodeID int) bitvec.BV {
	n := gm.Prog.Graph.Nodes[nodeID]
	off := int(gm.Prog.Off[nodeID])
	w := int(gm.Prog.WordsOf[nodeID])
	words := make([]uint64, w)
	for i := range words {
		words[i] = gm.State[(off+i)*gm.K+l]
	}
	return bitvec.FromWords(n.Width, words)
}

// LanePoke overwrites an input node's value in lane l, truncating to width,
// and reports whether the value changed.
func (gm *GangMachine) LanePoke(l, nodeID int, v bitvec.BV) bool {
	n := gm.Prog.Graph.Nodes[nodeID]
	w := bitvec.Pad(v, n.Width)
	off := int(gm.Prog.Off[nodeID])
	changed := false
	for i, word := range w.W {
		if slot := (off+i)*gm.K + l; gm.State[slot] != word {
			changed = true
			gm.State[slot] = word
		}
	}
	return changed
}

// LanePeekMem returns one element of a memory in lane l.
func (gm *GangMachine) LanePeekMem(l, memID, addr int) bitvec.BV {
	spec := &gm.Prog.Mems[memID]
	base := addr * int(spec.WordsPer)
	words := make([]uint64, spec.WordsPer)
	for i := range words {
		words[i] = gm.Mems[memID][(base+i)*gm.K+l]
	}
	return bitvec.FromWords(spec.Width, words)
}

// LanePokeMem overwrites one element of a memory in lane l.
func (gm *GangMachine) LanePokeMem(l, memID, addr int, v bitvec.BV) {
	spec := &gm.Prog.Mems[memID]
	w := bitvec.Pad(v, spec.Width)
	base := addr * int(spec.WordsPer)
	for i, word := range w.W {
		gm.Mems[memID][(base+i)*gm.K+l] = word
	}
}

// PackBits packs a 1-bit signal's K lane values into a lane mask (lane l ->
// bit l) — the bit-parallel read engines use for per-lane control decisions.
func (gm *GangMachine) PackBits(off int32) uint64 {
	base := int(off) * gm.K
	var m uint64
	for l := 0; l < gm.K; l++ {
		m |= (gm.State[base+l] & 1) << uint(l)
	}
	return m
}

// execLanes runs one instruction on each lane selected by mask through the
// gather/execute/scatter fallback — the divergence path and the wide path.
func (gm *GangMachine) execLanes(in *Instr, mask uint64) {
	for mm := mask; mm != 0; mm &= mm - 1 {
		gm.execLane(in, bits.TrailingZeros64(mm))
	}
}

// execLane executes one instruction for one lane via the scalar scratch
// image: gather the operands, run the reference interpreter, scatter the
// result. Memory reads run natively against the strided arrays instead.
func (gm *GangMachine) execLane(in *Instr, l int) {
	if in.Op == CMemRead {
		gm.memReadLane(in, l)
		return
	}
	gm.gatherLane(in.A, wordsFor32(in.AW), l)
	if in.Op >= CAdd { // binaries read B; unaries ignore it (see execNarrow)
		gm.gatherLane(in.B, wordsFor32(in.BW), l)
	}
	if in.Op == CMux {
		gm.gatherLane(in.C, wordsFor32(in.BW), l)
	}
	sc := gm.scratch
	if in.DW <= 64 && in.AW <= 64 && in.BW <= 64 {
		sc.execNarrow(sc.State, in)
	} else {
		sc.execWide(in)
	}
	gm.scatterLane(in.D, wordsFor32(in.DW), l)
}

// gatherLane copies one lane's operand words into the scratch image at the
// operand's own offsets, so instruction operand fields need no translation.
func (gm *GangMachine) gatherLane(off, words int32, l int) {
	k := gm.K
	sc := gm.scratch.State
	for i := int32(0); i < words; i++ {
		sc[off+i] = gm.State[(int(off)+int(i))*k+l]
	}
}

// scatterLane copies a result from the scratch image back into one lane.
func (gm *GangMachine) scatterLane(off, words int32, l int) {
	k := gm.K
	sc := gm.scratch.State
	for i := int32(0); i < words; i++ {
		gm.State[(int(off)+int(i))*k+l] = sc[off+i]
	}
}

// memReadLane executes CMemRead for one lane directly against the strided
// memory arrays, mirroring the scalar semantics exactly: address is the first
// operand word, non-zero high address words force out-of-range, out-of-range
// reads produce zero, and the top result word is masked to the read width.
func (gm *GangMachine) memReadLane(in *Instr, l int) {
	k := gm.K
	spec := &gm.Prog.Mems[in.Lo]
	aw := int(wordsFor32(in.AW))
	dw := int(wordsFor32(in.DW))
	a := int(in.A)
	addr := gm.State[a*k+l]
	for i := 1; i < aw; i++ {
		if gm.State[(a+i)*k+l] != 0 {
			addr = uint64(spec.Depth) // force out of range
			break
		}
	}
	d := int(in.D)
	if addr < uint64(spec.Depth) {
		base := int(addr) * int(spec.WordsPer)
		mem := gm.Mems[in.Lo]
		for i := 0; i < dw; i++ {
			gm.State[(d+i)*k+l] = mem[(base+i)*k+l]
		}
	} else {
		for i := 0; i < dw; i++ {
			gm.State[(d+i)*k+l] = 0
		}
	}
	gm.State[(d+dw-1)*k+l] &= bitvec.TopMask(int(in.DW))
}

// GangKernels returns (building and memoizing on first use) the program's
// gang kernel table for k lanes: one GangFn per instruction. Tables are
// per-(Program, k) and shared — N gang machines of one cached design reuse
// one table.
func (p *Program) GangKernels(k int) []GangFn {
	if k < 1 || k > MaxGangLanes {
		panic(fmt.Sprintf("emit: gang lane count %d outside [1,%d]", k, MaxGangLanes))
	}
	p.gangMu.Lock()
	defer p.gangMu.Unlock()
	if fns, ok := p.gangKernels[k]; ok {
		return fns
	}
	fns := make([]GangFn, len(p.Instrs))
	full := GangFullMask(k)
	for i := range p.Instrs {
		fns[i] = buildGangKernel(&p.Instrs[i], k, full)
	}
	if p.gangKernels == nil {
		p.gangKernels = map[int][]GangFn{}
	}
	p.gangKernels[k] = fns
	return fns
}

// buildGangKernel compiles one instruction's gang kernel. The dense all-lanes
// path inlines the operation as a loop over the K-wide lane slices (this is
// where dispatch amortization comes from); any divergence falls back to the
// per-lane gather/scatter path, as do all wide instructions (rare in
// processor designs, and the fallback is the reference interpreter itself).
func buildGangKernel(instr *Instr, k int, full uint64) GangFn {
	w := *instr // private copy: kernels outlive the caller's slice indexing
	if w.DW > 64 || w.AW > 64 || w.BW > 64 {
		return func(gm *GangMachine, mask uint64) { gm.execLanes(&w, mask) }
	}
	d := int(w.D) * k
	a := int(w.A) * k
	b := int(w.B) * k
	c := int(w.C) * k
	dm := mask(w.DW)
	am := mask(w.AW)
	awBits, bwBits := w.AW, w.BW
	lo := w.Lo

	switch w.Op {
	case CCopy:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa := st[d:d+k], st[a:a+k]
			for l := range dd {
				dd[l] = aa[l] & dm
			}
		}
	case CAdd:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				dd[l] = (aa[l] + bb[l]) & dm
			}
		}
	case CSub:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				dd[l] = (aa[l] - bb[l]) & dm
			}
		}
	case CMul:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				dd[l] = (aa[l] * bb[l]) & dm
			}
		}
	case CDiv:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if bb[l] != 0 {
					r = aa[l] / bb[l]
				}
				dd[l] = r & dm
			}
		}
	case CRem:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if bb[l] != 0 {
					r = aa[l] % bb[l]
				}
				dd[l] = r & dm
			}
		}
	case CNeg:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa := st[d:d+k], st[a:a+k]
			for l := range dd {
				dd[l] = (-aa[l]) & dm
			}
		}
	case CAnd:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				dd[l] = (aa[l] & bb[l]) & dm
			}
		}
	case COr:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				dd[l] = (aa[l] | bb[l]) & dm
			}
		}
	case CXor:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				dd[l] = (aa[l] ^ bb[l]) & dm
			}
		}
	case CNot:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa := st[d:d+k], st[a:a+k]
			for l := range dd {
				dd[l] = (^aa[l]) & dm
			}
		}
	case CAndR:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa := st[d:d+k], st[a:a+k]
			for l := range dd {
				var r uint64
				if aa[l] == am {
					r = 1
				}
				dd[l] = r & dm
			}
		}
	case COrR:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa := st[d:d+k], st[a:a+k]
			for l := range dd {
				var r uint64
				if aa[l] != 0 {
					r = 1
				}
				dd[l] = r & dm
			}
		}
	case CXorR:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa := st[d:d+k], st[a:a+k]
			for l := range dd {
				dd[l] = (uint64(bits.OnesCount64(aa[l])) & 1) & dm
			}
		}
	case CEq:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if aa[l] == bb[l] {
					r = 1
				}
				dd[l] = r & dm
			}
		}
	case CNeq:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if aa[l] != bb[l] {
					r = 1
				}
				dd[l] = r & dm
			}
		}
	case CLt:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if aa[l] < bb[l] {
					r = 1
				}
				dd[l] = r & dm
			}
		}
	case CLeq:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if aa[l] <= bb[l] {
					r = 1
				}
				dd[l] = r & dm
			}
		}
	case CGt:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if aa[l] > bb[l] {
					r = 1
				}
				dd[l] = r & dm
			}
		}
	case CGeq:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if aa[l] >= bb[l] {
					r = 1
				}
				dd[l] = r & dm
			}
		}
	case CSLt:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if sext64(aa[l], awBits) < sext64(bb[l], bwBits) {
					r = 1
				}
				dd[l] = r & dm
			}
		}
	case CSLeq:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if sext64(aa[l], awBits) <= sext64(bb[l], bwBits) {
					r = 1
				}
				dd[l] = r & dm
			}
		}
	case CSGt:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if sext64(aa[l], awBits) > sext64(bb[l], bwBits) {
					r = 1
				}
				dd[l] = r & dm
			}
		}
	case CSGeq:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if sext64(aa[l], awBits) >= sext64(bb[l], bwBits) {
					r = 1
				}
				dd[l] = r & dm
			}
		}
	case CShl:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa := st[d:d+k], st[a:a+k]
			for l := range dd {
				var r uint64
				if lo < 64 {
					r = aa[l] << uint(lo)
				}
				dd[l] = r & dm
			}
		}
	case CShr:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa := st[d:d+k], st[a:a+k]
			for l := range dd {
				var r uint64
				if lo < 64 {
					r = aa[l] >> uint(lo)
				}
				dd[l] = r & dm
			}
		}
	case CDshl:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if bb[l] < 64 {
					r = aa[l] << uint(bb[l])
				}
				dd[l] = r & dm
			}
		}
	case CDshr:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				var r uint64
				if bb[l] < 64 {
					r = aa[l] >> uint(bb[l])
				}
				dd[l] = r & dm
			}
		}
	case CCat:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb := st[d:d+k], st[a:a+k], st[b:b+k]
			for l := range dd {
				dd[l] = (aa[l]<<uint(bwBits) | bb[l]) & dm
			}
		}
	case CBits:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa := st[d:d+k], st[a:a+k]
			for l := range dd {
				dd[l] = (aa[l] >> uint(lo)) & dm
			}
		}
	case CSExt:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa := st[d:d+k], st[a:a+k]
			for l := range dd {
				dd[l] = uint64(sext64(aa[l], awBits)) & dm
			}
		}
	case CMux:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			dd, aa, bb, cc := st[d:d+k], st[a:a+k], st[b:b+k], st[c:c+k]
			for l := range dd {
				r := cc[l]
				if aa[l] != 0 {
					r = bb[l]
				}
				dd[l] = r & dm
			}
		}
	case CMemRead:
		return func(gm *GangMachine, mm uint64) {
			if mm != full {
				gm.execLanes(&w, mm)
				return
			}
			st := gm.State
			spec := &gm.Prog.Mems[lo]
			depth := uint64(spec.Depth)
			wp := int(spec.WordsPer)
			mem := gm.Mems[lo]
			dd, aa := st[d:d+k], st[a:a+k]
			for l := range dd {
				var r uint64
				if addr := aa[l]; addr < depth {
					r = mem[int(addr)*wp*k+l]
				}
				dd[l] = r & dm
			}
		}
	default:
		panic(fmt.Sprintf("emit: bad gang opcode %d", w.Op))
	}
}
