package rv

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/core"
	"gsim/internal/engine"
)

// randomProgram generates a straight-line RV32I program of random ALU,
// memory, and (forward-only) branch instructions, ending in ecall. Forward
// branches to numbered labels keep it guaranteed to terminate.
func randomProgram(rng *rand.Rand, n int) string {
	var sb strings.Builder
	regs := []string{"t0", "t1", "t2", "t3", "t4", "s1", "a1", "a2"} // s0 stays the stable memory base
	r := func() string { return regs[rng.Intn(len(regs))] }
	// Seed registers and a valid memory base.
	sb.WriteString("  li t0, 0x1a2b\n  li t1, 0x3c4d\n  li t2, 7\n  li s0, 0x400\n  li s1, 99\n")
	label := 0
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0:
			fmt.Fprintf(&sb, "  add %s, %s, %s\n", r(), r(), r())
		case 1:
			fmt.Fprintf(&sb, "  sub %s, %s, %s\n", r(), r(), r())
		case 2:
			fmt.Fprintf(&sb, "  xor %s, %s, %s\n", r(), r(), r())
		case 3:
			fmt.Fprintf(&sb, "  and %s, %s, %s\n", r(), r(), r())
		case 4:
			fmt.Fprintf(&sb, "  addi %s, %s, %d\n", r(), r(), rng.Intn(4000)-2000)
		case 5:
			fmt.Fprintf(&sb, "  slli %s, %s, %d\n", r(), r(), rng.Intn(32))
		case 6:
			fmt.Fprintf(&sb, "  srai %s, %s, %d\n", r(), r(), rng.Intn(32))
		case 7:
			fmt.Fprintf(&sb, "  slt %s, %s, %s\n", r(), r(), r())
		case 8:
			fmt.Fprintf(&sb, "  sltu %s, %s, %s\n", r(), r(), r())
		case 9:
			// Word store + load through the safe base register.
			off := 4 * rng.Intn(16)
			fmt.Fprintf(&sb, "  sw %s, %d(s0)\n", r(), off)
			fmt.Fprintf(&sb, "  lw %s, %d(s0)\n", r(), off)
		case 10:
			if rng.Intn(2) == 0 {
				off := rng.Intn(32)
				fmt.Fprintf(&sb, "  sb %s, %d(s0)\n", r(), off)
				fmt.Fprintf(&sb, "  lbu %s, %d(s0)\n", r(), off)
				fmt.Fprintf(&sb, "  lb %s, %d(s0)\n", r(), off)
			} else {
				off := 2 * rng.Intn(16)
				fmt.Fprintf(&sb, "  sh %s, %d(s0)\n", r(), off)
				fmt.Fprintf(&sb, "  lhu %s, %d(s0)\n", r(), off)
				fmt.Fprintf(&sb, "  lh %s, %d(s0)\n", r(), off)
			}
		default:
			// Forward branch over a couple of instructions.
			fmt.Fprintf(&sb, "  b%s %s, %s, L%d\n",
				[]string{"eq", "ne", "lt", "ge", "ltu", "geu"}[rng.Intn(6)], r(), r(), label)
			fmt.Fprintf(&sb, "  addi %s, %s, 1\n", r(), r())
			fmt.Fprintf(&sb, "L%d:\n", label)
			label++
		}
	}
	// Fold everything into a0 so divergence anywhere shows in the result.
	sb.WriteString("  add a0, t0, t1\n  add a0, a0, t2\n  add a0, a0, s1\n  ecall\n")
	return sb.String()
}

// TestRandomProgramsMatchISS is the instruction-level fuzz test: random
// programs must produce identical architectural results on the RTL core
// (under GSIM and Verilator configs) and the ISS.
func TestRandomProgramsMatchISS(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomProgram(rng, 60)
		prog, err := Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		iss := NewISS(prog, DefaultCoreConfig().DMemWords)
		if err := iss.Run(100000); err != nil {
			t.Fatalf("seed %d: iss: %v", seed, err)
		}
		if !iss.Halted {
			t.Fatalf("seed %d: iss did not halt", seed)
		}
		for _, cfg := range []core.Config{core.Verilator(), core.GSIM()} {
			a0, ret := runOnCore(t, prog, cfg, int(iss.Count)+16)
			if a0 != iss.Regs[10] {
				t.Fatalf("seed %d %s: a0=%#x, iss=%#x\n%s", seed, cfg.Name, a0, iss.Regs[10], src)
			}
			if uint64(ret) != iss.Count {
				t.Fatalf("seed %d %s: instret=%d, iss=%d", seed, cfg.Name, ret, iss.Count)
			}
		}
	}
}

// TestPseudoInstructions verifies the assembler's pseudo-instruction
// expansions through execution.
func TestPseudoInstructions(t *testing.T) {
	prog, err := Assemble(`
  li   t0, 0x12345678     # lui+addi with carry adjustment
  li   t1, -5             # negative immediate
  mv   a1, t0
  call func
  j    end
func:
  addi a2, a1, 1
  ret
end:
  beqz zero, fin
  nop
fin:
  add  a0, a2, t1
  ecall
`)
	if err != nil {
		t.Fatal(err)
	}
	iss := NewISS(prog, 64)
	if err := iss.Run(1000); err != nil {
		t.Fatal(err)
	}
	want := uint32(0x12345678) + 1 - 5
	if iss.Regs[10] != want {
		t.Fatalf("a0 = %#x, want %#x", iss.Regs[10], want)
	}
	// And on the RTL core.
	a0, _ := runOnCore(t, prog, core.GSIM(), 200)
	if a0 != want {
		t.Fatalf("core a0 = %#x, want %#x", a0, want)
	}
}

// FuzzCoreMatchesISS makes the ISS an independent conformance axis for every
// engine and evaluation mode: the fuzz input seeds randomProgram, and the RTL
// core must match the ISS's PC and x1..x31 after every retired instruction.
// Each cell compiles the core once, with an empty instruction memory; every
// input then Resets the engine and loads its program through PokeMem, so the
// target also pins Reset against a fresh build.
func FuzzCoreMatchesISS(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	withEval := func(cfg core.Config, mode engine.EvalMode) core.Config {
		cfg.Eval = mode
		cfg.Name += "/" + mode.String()
		return cfg
	}
	cfgs := []core.Config{
		withEval(core.Verilator(), engine.EvalKernel),
		withEval(core.Verilator(), engine.EvalKernelNoFuse),
		withEval(core.Verilator(), engine.EvalInterp),
		withEval(core.VerilatorMT(2), engine.EvalKernelNoFuse),
		core.GSIM(),
	}
	c, err := BuildCore(nil, DefaultCoreConfig())
	if err != nil {
		f.Fatal(err)
	}
	type cell struct {
		sys *core.System
		pc  int
	}
	cells := make([]cell, len(cfgs))
	for i, cfg := range cfgs {
		sys, err := core.Build(c.Graph, cfg)
		if err != nil {
			f.Fatalf("%s: %v", cfg.Name, err)
		}
		f.Cleanup(sys.Close)
		cells[i] = cell{sys: sys, pc: sys.Node(c.PCName).ID}
	}

	f.Fuzz(func(t *testing.T, seed int64) {
		src := randomProgram(rand.New(rand.NewSource(seed)), 60)
		prog, err := Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		for ci, cl := range cells {
			sim := cl.sys.Sim
			sim.Reset()
			for i, w := range prog {
				sim.PokeMem(c.IMemID, i, bitvec.FromUint64(32, uint64(w)))
			}
			iss := NewISS(prog, DefaultCoreConfig().DMemWords)
			for step := 0; !iss.Halted; step++ {
				if step > len(prog) {
					t.Fatalf("seed %d: ISS did not halt within %d instructions", seed, step)
				}
				sim.Step()
				if err := iss.Step(); err != nil {
					t.Fatalf("seed %d: iss: %v", seed, err)
				}
				if got := uint32(sim.Peek(cl.pc).Uint64()); got != iss.PC {
					t.Fatalf("seed %d %s: instruction %d: PC=%#x, ISS PC=%#x\n%s", seed, cfgs[ci].Name, step, got, iss.PC, src)
				}
				for r := 1; r < 32; r++ {
					if got := uint32(sim.PeekMem(c.RFID, r).Uint64()); got != iss.Regs[r] {
						t.Fatalf("seed %d %s: instruction %d: x%d=%#x, ISS x%d=%#x\n%s", seed, cfgs[ci].Name, step, r, got, r, iss.Regs[r], src)
					}
				}
			}
		}
	})
}
