package emit

import (
	"fmt"
	"math/rand"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/ir"
)

// numOpCodes bounds the opcode enumeration (via the cOpCount sentinel) for
// the sweeps below and in fuse_test.go.
const numOpCodes = int(cOpCount)

// TestKernelOpcodeCoverage pins the contract the engines rely on: every
// opcode in the enumeration compiles in the bound-chain compiler
// (compileKernelBound) at both narrow and wide widths, so a new opcode added
// without a kernel fails the sweep instead of panicking at engine
// construction.
func TestKernelOpcodeCoverage(t *testing.T) {
	p := &Program{NumWords: 8, Mems: []MemSpec{{Depth: 2, Width: 8, WordsPer: 1, Init: make([]uint64, 2)}}}
	mach := NewMachine(p)
	for op := int(CCopy); op < numOpCodes; op++ {
		narrow := Instr{Op: OpCode(op), DW: 8, AW: 8, BW: 8}
		wide := Instr{Op: OpCode(op), DW: 128, AW: 128, BW: 128}
		if fn := mustCompile(t, mach, narrow); fn == nil {
			t.Fatalf("opcode %d: no narrow kernel", op)
		}
		if fn := mustCompile(t, mach, wide); fn == nil {
			t.Fatalf("opcode %d: no wide fallback", op)
		}
	}
}

func mustCompile(t *testing.T, m *Machine, in Instr) (fn BoundFn) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("opcode %d (widths %d/%d/%d): compile panicked: %v", in.Op, in.DW, in.AW, in.BW, r)
		}
	}()
	return compileKernelBound(m, in)
}

// TestChainMatchesInterp is the chain-level property test for every kernel
// mode: for random expression trees (narrow and wide), the bound chain —
// width classes, and superinstructions when fused — must leave the machine in
// the exact state the interpreter leaves it in, every word including
// temporaries. Fused, the closure count may only shrink; unfused (the
// kernel-nofuse path), it is exactly one closure per instruction.
func TestChainMatchesInterp(t *testing.T) {
	for _, fuse := range []bool{true, false} {
		t.Run(fmt.Sprintf("fuse=%v", fuse), func(t *testing.T) {
			for seed := int64(300); seed < 360; seed++ {
				checkChainMatchesInterp(t, seed, fuse)
			}
		})
	}
}

func checkChainMatchesInterp(t *testing.T, seed int64, fuse bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := ir.NewBuilder(fmt.Sprintf("c%d", seed))
	var inputs []*ir.Node
	vals := map[*ir.Node]bitvec.BV{}
	for i := 0; i < 4; i++ {
		w := 1 + rng.Intn(130)
		in := b.Input(fmt.Sprintf("i%d", i), w)
		inputs = append(inputs, in)
		v := bitvec.New(w)
		for j := range v.W {
			v.W[j] = rng.Uint64()
		}
		vals[in] = bitvec.FromWords(w, v.W)
	}
	e := randExpr(rng, b, inputs, 6)
	p, _ := compileExpr(t, inputs, b.G, e)

	mi := NewMachine(p)
	mb := NewMachine(p)
	bfns := p.AppendChainBound(nil, mb, p.Instrs, fuse)
	if fuse && len(bfns) > len(p.Instrs) {
		t.Fatalf("seed %d: chain grew: %d closures for %d instructions", seed, len(bfns), len(p.Instrs))
	}
	if !fuse && len(bfns) != len(p.Instrs) {
		t.Fatalf("seed %d: unfused chain has %d closures for %d instructions", seed, len(bfns), len(p.Instrs))
	}
	for _, in := range inputs {
		mi.Poke(in.ID, vals[in])
		mb.Poke(in.ID, vals[in])
	}
	mi.Exec(0, int32(len(p.Instrs)))
	for _, f := range bfns {
		f()
	}
	for w := range mi.State {
		if mi.State[w] != mb.State[w] {
			t.Fatalf("seed %d: state word %d: interp %#x vs bound chain %#x\nexpr: %s",
				seed, w, mi.State[w], mb.State[w], e)
		}
	}
}
