package emit

// Superinstruction fusion: a peephole pass over an instruction chain that
// collapses common two- and three-instruction patterns into one kernel. The
// per-window kernel call is the dominant cost of the stream on narrow
// designs (GSIM's emitted C++ pays no such dispatch; Manticore and Parendi
// both report instruction-granularity overhead dominating BSP-style RTL
// simulation), so cutting the call count on the hottest idioms is a direct
// win.
//
// A fused kernel performs exactly the stores of its source instructions in
// their original order — every intermediate result is still written to its
// state slot, and a later instruction reads its operands after the earlier
// stores. That makes fusion trivially bit-identical to sequential execution
// (the lockstep and fuzz suites pin this): the only thing removed is
// dispatch.
//
// Fusion is applied when a chain is appended to a Stream, never to the
// instruction stream itself, so Instrs, Code ranges, and instruction
// counting are untouched: a fused superinstruction still retires every
// instruction it covers.
//
// The production matchers (matchFuse2, matchFuse3 in fuse_gen.go), the
// FuseRule enumeration and the kernels are generated by cmd/rulegen from the
// declarative tables in internal/emit/rules. This file keeps the shared
// structural predicates and the fusion walk.

// isCmp reports whether op is one of the ten comparisons (0/1 result).
func isCmp(op OpCode) bool { return op >= CEq && op <= CSGeq }

// narrow reports whether every width of the instruction fits one word.
func narrow(in Instr) bool { return in.DW <= 64 && in.AW <= 64 && in.BW <= 64 }

// fusionWalk is the greedy scan Stream.Append compiles a chain with: at
// each position the widest matching window wins (a triple beats the pair it
// contains). It calls f once per kernel the chain compiles to, with the
// window's first index and its rule — FuseRuleNone for a lone instruction.
func fusionWalk(ins []Instr, f func(i int, r FuseRule)) {
	for i := 0; i < len(ins); i++ {
		r := FuseRuleNone
		if i+2 < len(ins) {
			r = matchFuse3(ins[i], ins[i+1], ins[i+2])
		}
		if r == FuseRuleNone && i+1 < len(ins) {
			r = matchFuse2(ins[i], ins[i+1])
		}
		f(i, r)
		i += max(r.Arity()-1, 0)
	}
}

// FusionStats counts, per generated rule, how many windows of the chain
// fuse — the diagnostic behind cmd/gsim-diag's fusion report. The slice is
// indexed by FuseRule ([FuseRuleNone+1, NumFuseRules)); the walk is
// Stream.Append's, so the counts are the fused kernels the chain compiles to.
func FusionStats(ins []Instr) []int {
	counts := make([]int, NumFuseRules)
	fusionWalk(ins, func(_ int, r FuseRule) {
		if r != FuseRuleNone {
			counts[r]++
		}
	})
	return counts
}

// FusionProducers breaks FusionStats down by producer: counts[rule][op] is
// the number of the rule's windows whose first instruction has opcode op.
// gsim-diag reads the generic rules' rows to choose the value table's
// inline producers.
func FusionProducers(ins []Instr) [][]int {
	counts := make([][]int, NumFuseRules)
	for r := range counts {
		counts[r] = make([]int, cOpCount)
	}
	fusionWalk(ins, func(i int, r FuseRule) {
		if r != FuseRuleNone {
			counts[r][ins[i].Op]++
		}
	})
	return counts
}

// ElidableStores counts, per rule, the windows of a chain of p whose
// producer writes a temporary that no instruction but the window's consumer
// reads before the word is written again — the stores a kernel could keep
// in a register instead (ROADMAP direction 2(b)). Only temporaries count: a
// persistent word is read by engines, snapshots and other chains, and a
// next value by the register's commit.
// Measurement only: no kernel elides a store.
func ElidableStores(p *Program, ins []Instr) []int {
	counts := make([]int, NumFuseRules)
	fusionWalk(ins, func(i int, r FuseRule) {
		if r != FuseRuleNone && int(ins[i].D) >= p.TempBase() && onlyReader(ins, i) {
			counts[r]++
		}
	})
	return counts
}

// onlyReader reports whether ins[i+1] is the one instruction reading the
// word ins[i] stores before an instruction overwrites it or the chain ends.
func onlyReader(ins []Instr, i int) bool {
	d := ins[i].D
	readers := 0
	for j := i + 1; j < len(ins); j++ {
		in := &ins[j]
		if reads(in, d) {
			if j != i+1 {
				return false
			}
			readers++
		}
		if touches(in.D, in.DW, d) {
			break
		}
	}
	return readers == 1
}
