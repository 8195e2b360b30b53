package emit

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/ir"
)

// numOpCodes bounds the opcode enumeration (via the cOpCount sentinel) for
// the sweeps below and in fuse_test.go.
const numOpCodes = int(cOpCount)

// TestKernelOpcodeCoverage pins the contract the engines rely on: every
// opcode in the enumeration compiles to one kernel at both narrow and wide
// widths, so a new opcode added without a kernel fails the sweep instead of
// panicking at engine construction.
func TestKernelOpcodeCoverage(t *testing.T) {
	p := &Program{NumWords: 8, Mems: []MemSpec{{Depth: 2, Width: 8, WordsPer: 1, Init: make([]uint64, 2)}}}
	for op := int(CCopy); op < numOpCodes; op++ {
		for _, w := range []int32{8, 128} {
			in := Instr{Op: OpCode(op), DW: w, AW: w, BW: w}
			if k := kernelsFor(t, p, in); k != 1 {
				t.Fatalf("opcode %s at width %d: %d kernels, want 1", in.Op, w, k)
			}
		}
	}
}

// kernelsFor compiles one instruction into a fresh stream and returns its
// kernel count, failing the test if the build panics.
func kernelsFor(t *testing.T, p *Program, in Instr) int {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("opcode %s (widths %d/%d/%d): compile panicked: %v", in.Op, in.DW, in.AW, in.BW, r)
		}
	}()
	s := NewStream(p, Fused)
	s.Append([]Instr{in})
	k, _, _ := s.Footprint()
	return k
}

// TestChainMatchesInterp is the chain-level property test for every stream
// mode: for random expression trees (narrow and wide), the whole program
// appended as one chain — width classes, and superinstructions when fused —
// must leave the machine in the exact state Machine.Exec leaves it in, every
// word including temporaries. Fused, the kernel count may only shrink;
// unfused (the kernel-nofuse path), it is exactly one kernel per
// instruction; interp, one window for the whole chain.
//
// The program also holds a register whose next value is a second random
// expression, and every chain updates it in place: its final store goes
// straight to its current word, which must then hold what Machine.Exec
// followed by the register's commit copy leaves there.
//
// The same program then runs a second time as one chain per node, the
// nodes alternating between two temporary regions of one machine, with
// both regions filled with random words before every node: a temporary is
// scratch, written before it is read inside its node, and a stale word —
// upper bits included, the masked-storage invariant unpad relies on — must
// never reach a persistent one.
func TestChainMatchesInterp(t *testing.T) {
	for _, mode := range []Mode{Fused, Unfused, Interp} {
		t.Run(mode.String(), func(t *testing.T) {
			for seed := int64(300); seed < 360; seed++ {
				checkChainMatchesInterp(t, seed, mode)
			}
		})
	}
}

func checkChainMatchesInterp(t *testing.T, seed int64, mode Mode) {
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
	reg := b.Reg("r", 1+rng.Intn(64))
	b.SetNext(reg, b.Fit(randExpr(rng, b, inputs, 4), reg.Width))
	p, _ := compileExpr(t, inputs, b.G, e)
	r := int32(reg.ID)
	if !p.InPlaceCandidate(r) {
		t.Fatalf("seed %d: the register cannot update in place", seed)
	}
	inPlace := func(id int32) bool { return id == r }

	mi := NewMachine(p)
	mb := NewMachine(p)
	mn := NewMachineRegions(p, 2)
	s := NewStream(p, mode)
	ids := make([]int32, len(p.Code))
	for id := range ids {
		ids[id] = int32(id)
	}
	chain := s.AppendNodes(ids, 0, inPlace)
	kernels, _, _ := s.Footprint()
	switch {
	case mode == Fused && kernels > len(p.Instrs):
		t.Fatalf("seed %d: chain grew: %d kernels for %d instructions", seed, kernels, len(p.Instrs))
	case mode == Unfused && kernels != len(p.Instrs):
		t.Fatalf("seed %d: unfused chain has %d kernels for %d instructions", seed, kernels, len(p.Instrs))
	case mode == Interp && kernels != 1:
		t.Fatalf("seed %d: interp chain has %d kernels, want one window", seed, kernels)
	}
	sn, perNode := NewStream(p, mode), make([]Span, len(ids))
	for _, id := range ids {
		perNode[id] = sn.AppendNodes([]int32{id}, int(id)%2, inPlace)
	}
	for _, in := range inputs {
		for _, m := range []*Machine{mi, mb, mn} {
			m.Poke(in.ID, vals[in])
		}
	}
	mi.Exec(0, int32(len(p.Instrs)))
	mi.State[p.Off[r]] = mi.State[p.NextOff[r]]
	s.CheckMachine(mb)
	s.Run(mb, chain)
	sn.CheckMachine(mn)
	for _, sp := range perNode {
		for w := p.StateWords; w < len(mn.State); w++ {
			mn.State[w] = rng.Uint64()
		}
		sn.Run(mn, sp)
	}
	// The whole chain runs in the interpreter's region: every word matches,
	// temporaries included, but the register's next word, which an in-place
	// chain never writes. Node by node, only the persistent words do.
	for name, m := range map[string]*Machine{"stream": mb, "node by node over poisoned regions": mn} {
		words := len(mi.State)
		if m == mn {
			words = p.StateWords
		}
		for w := range words {
			if mi.State[w] != m.State[w] && w != int(p.NextOff[r]) {
				t.Fatalf("seed %d: state word %d: interp %#x vs %s %#x\nexpr: %s",
					seed, w, mi.State[w], name, m.State[w], e)
			}
		}
	}
}

// TestStreamRefusesOutsideState corrupts one instruction at a time — an
// operand past the state image, a negative offset, a 2-word operand
// straddling the end, a memory index past Mems, a zero width, a temporary
// past its region — and checks that appending it in every mode refuses it,
// naming the instruction, instead of compiling a kernel that addresses
// memory outside the machine or masks with a width it cannot represent.
func TestStreamRefusesOutsideState(t *testing.T) {
	p := &Program{NumWords: 16, Mems: []MemSpec{{Depth: 4, Width: 8, WordsPer: 1, Init: make([]uint64, 4)}}}
	good := []Instr{
		{Op: CAdd, D: 10, DW: 8, A: 0, AW: 8, B: 1, BW: 8},
		{Op: CMux, D: 11, DW: 8, A: 2, AW: 1, B: 10, BW: 8, C: 3},
		{Op: CMemRead, D: 12, DW: 8, A: 11, AW: 2, Lo: 0},
		{Op: CCopy, D: 13, DW: 100, A: 4, AW: 100},
	}
	modes := []Mode{Fused, Unfused, Interp}
	for _, mode := range modes {
		NewStream(p, mode).Append(good)
	}
	for _, c := range []struct {
		name    string
		i       int
		corrupt func(*Instr)
	}{
		{"destination past the image", 0, func(in *Instr) { in.D = 16 }},
		{"negative source", 0, func(in *Instr) { in.A = -1 }},
		{"mux arm past the image", 1, func(in *Instr) { in.C = 99 }},
		{"memory index past Mems", 2, func(in *Instr) { in.Lo = 1 }},
		{"2-word destination straddling the end", 3, func(in *Instr) { in.D = 15 }},
		{"zero result width", 1, func(in *Instr) { in.DW = 0 }},
	} {
		ins := slices.Clone(good)
		c.corrupt(&ins[c.i])
		for _, mode := range modes {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				NewStream(p, mode).Append(ins)
				return "no panic"
			}()
			if want := fmt.Sprintf("instruction %d of the chain", c.i); !strings.Contains(msg, want) {
				t.Errorf("%s, %s: Append gave %q, want a refusal naming %q", c.name, mode, msg, want)
			}
		}
	}

	// A temporary operand is bounded by one region: past it — in another
	// worker's region or past the last one a machine has — it is refused
	// whatever region the chain is appended into.
	q := &Program{StateWords: 8, TempWords: 4, NumWords: 12, Mems: p.Mems,
		Instrs: []Instr{{Op: CAdd, D: 12, DW: 8, A: 0, AW: 8, B: 8, BW: 8}}, Code: []Range{{0, 1}}}
	for _, mode := range modes {
		for _, region := range []int{0, 1} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				NewStream(q, mode).AppendNodes([]int32{0}, region, nil)
				return "no panic"
			}()
			if !strings.Contains(msg, "instruction 0 of the chain") {
				t.Errorf("temporary past the region, %s, region %d: AppendNodes gave %q, want a refusal", mode, region, msg)
			}
		}
	}
	// A chain in region 1 needs a machine of two regions.
	q.Instrs[0].D = 11
	two := NewStream(q, Fused)
	two.AppendNodes([]int32{0}, 1, nil)
	two.CheckMachine(NewMachineRegions(q, 2))
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		two.CheckMachine(NewMachine(q))
		return "no panic"
	}()
	if !strings.Contains(msg, "not shaped like") {
		t.Errorf("CheckMachine of a one-region machine for a chain in region 1 gave %q, want a refusal", msg)
	}

	// The stream is validated against the program, so a machine that is not
	// shaped like it is refused where an engine binds one.
	m := NewMachine(p)
	NewStream(p, Fused).CheckMachine(m)
	m.Mems[0] = m.Mems[0][:2]
	msg = func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		NewStream(p, Fused).CheckMachine(m)
		return "no panic"
	}()
	if !strings.Contains(msg, "not shaped like") {
		t.Errorf("CheckMachine of a machine with a short memory gave %q, want a refusal", msg)
	}
}

// TestStreamBuildAllocs pins the absence of any per-instruction heap
// object: building a 10 000-instruction chain in every mode costs the
// append growth steps of the stream's two arrays and nothing per window.
func TestStreamBuildAllocs(t *testing.T) {
	p := &Program{NumWords: 64}
	shapes := []Instr{
		{Op: CBits, D: 10, DW: 1, A: 0, AW: 20, Lo: 5},
		{Op: CAnd, D: 11, DW: 1, A: 10, AW: 1, B: 1, BW: 1},
		{Op: CMux, D: 12, DW: 16, A: 11, AW: 1, B: 2, BW: 16, C: 3},
		{Op: CXor, D: 13, DW: 16, A: 12, AW: 16, B: 4, BW: 16},
		{Op: CAdd, D: 14, DW: 16, A: 13, AW: 16, B: 5, BW: 16},
		{Op: CCopy, D: 16, DW: 100, A: 20, AW: 100},
		{Op: CMul, D: 18, DW: 200, A: 20, AW: 100, B: 24, BW: 100},
	}
	ins := make([]Instr, 10_000)
	for i := range ins {
		ins[i] = shapes[i%len(shapes)]
	}
	for _, mode := range []Mode{Fused, Unfused, Interp} {
		allocs := testing.AllocsPerRun(3, func() {
			s := NewStream(p, mode)
			s.Append(ins)
			s.Trim()
		})
		if allocs > 64 {
			t.Errorf("%s: building a %d-instruction stream made %.0f allocations, want at most 64", mode, len(ins), allocs)
		}
	}
}
