package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/gen"
	"gsim/internal/ir"
)

// evalLockstepConfigs are the engine configurations the kernel/interp
// equivalence suite pins: full-cycle at one, two and four workers, and
// essential-signal (the race detector covers the multi-worker runs in CI).
func evalLockstepConfigs() []Config {
	return []Config{Verilator(), VerilatorMT(2), VerilatorMT(4), GSIM()}
}

// padFoldFIRRTL feeds zero-extensions that compile to nothing (emit's unpad)
// to every consumer that reads an operand's width: cat, andr, a sign
// extension, a signed compare, a memory address, dshl; and one pad that adds a
// state word and stays a copy. Also a seed of FuzzKernelLockstep.
const padFoldFIRRTL = `circuit PadFold :
  module PadFold :
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<5>
    input c : UInt<7>
    input s : UInt<3>
    output o_cat : UInt<19>
    output o_andr : UInt<1>
    output o_sext : UInt<16>
    output o_slt : UInt<1>
    output o_mem : UInt<8>
    output o_dshl : UInt<24>
    output o_wide : UInt<100>
    output o_acc : UInt<12>

    reg acc : UInt<12>, clock with :
      reset => (reset, UInt<12>("h0"))
    mem m :
      data-type => UInt<8>
      depth => 16
      read-latency => 0
      write-latency => 1
      reader => r
      writer => w

    acc <= tail(add(acc, pad(c, 12)), 1)
    m.w.addr <= pad(s, 4)
    m.w.data <= pad(c, 8)
    m.w.en <= bits(a, 0, 0)
    m.w.clk <= clock
    m.w.mask <= UInt<1>(1)
    m.r.addr <= pad(bits(acc, 2, 0), 4)
    m.r.en <= UInt<1>(1)
    m.r.clk <= clock

    o_cat <= cat(pad(a, 12), c)
    o_andr <= andr(pad(not(a), 5))
    o_sext <= asUInt(pad(asSInt(pad(a, 9)), 16))
    o_slt <= lt(asSInt(pad(a, 7)), asSInt(c))
    o_mem <= m.r.data
    o_dshl <= dshl(pad(a, 9), pad(s, 4))
    o_wide <= not(pad(xor(a, bits(c, 4, 0)), 100))
    o_acc <= acc
`

// swapFIRRTL is the full-cycle sweep's fallback design: a register swap
// (a <= b, b <= a) is a register read cycle, and w is a wide register, so
// the one-worker sweep commits all three through the commit list; c reads
// the pair and s reads c, so s must run before c writes in place. Also a
// seed of FuzzKernelLockstep.
const swapFIRRTL = `circuit Swap :
  module Swap :
    input clock : Clock
    input reset : UInt<1>
    input load : UInt<1>
    input d : UInt<8>
    input dw : UInt<100>
    output oa : UInt<8>
    output ob : UInt<8>
    output oc : UInt<8>
    output os : UInt<8>
    output ow : UInt<100>

    reg a : UInt<8>, clock with :
      reset => (reset, UInt<8>("h1"))
    reg b : UInt<8>, clock with :
      reset => (reset, UInt<8>("h2"))
    reg c : UInt<8>, clock
    reg s : UInt<8>, clock
    reg w : UInt<100>, clock with :
      reset => (reset, UInt<100>("h3"))

    a <= mux(load, d, b)
    b <= a
    c <= tail(add(a, b), 1)
    s <= xor(c, s)
    w <= mux(load, dw, cat(bits(w, 91, 0), xor(a, c)))

    oa <= a
    ob <= b
    oc <= c
    os <= s
    ow <= w
`

// noNodesFIRRTL has no node with code, so its partition has no supernode: a
// snapshot of it must restore like any other. Also a seed of
// FuzzKernelLockstep.
const noNodesFIRRTL = "circuit I :\n  module I :\n    input clock : Clock\n    input a : UInt<8>\n"

// lockstepDesigns returns every testdata FIRRTL design, the pad-folding
// shapes and the register swap above, the repeated subtrees value numbering
// computes once (repeatFIRRTL), and two generated designs, as (name, graph)
// pairs.
func lockstepDesigns(t *testing.T) (names []string, graphs []*ir.Graph) {
	t.Helper()
	padFold, err := firrtl.Load(padFoldFIRRTL)
	if err != nil {
		t.Fatalf("padfold: %v", err)
	}
	names, graphs = append(names, "padfold"), append(graphs, padFold)
	swap, err := firrtl.Load(swapFIRRTL)
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	names, graphs = append(names, "swap"), append(graphs, swap)
	repeat, err := firrtl.Load(repeatFIRRTL)
	if err != nil {
		t.Fatalf("repeat: %v", err)
	}
	names, graphs = append(names, "repeat"), append(graphs, repeat)
	files, err := filepath.Glob("../../testdata/*.fir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata designs found: %v", err)
	}
	for _, f := range files {
		g, err := firrtl.LoadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		names = append(names, filepath.Base(f))
		graphs = append(graphs, g)
	}
	for _, seed := range []int64{5, 17} {
		names = append(names, "gen"+string(rune('0'+seed%10)))
		graphs = append(graphs, gen.Random(seed, gen.DefaultRandomConfig()))
	}
	return names, graphs
}

// analyzable returns the program sys runs, rebuilt from its source graph g
// with the expression trees a compiled design releases: Optimize under sys's
// options, then emit.Compile. Its graph is what the reference oracle and
// levelization read, and engines over it share sys's node IDs, state layout
// and partition; the design hash pins it to sys's program.
func analyzable(t testing.TB, g *ir.Graph, sys *System) *emit.Program {
	t.Helper()
	og, _, err := Optimize(g, sys.Config.Opt)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := emit.Compile(og)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prog.DesignHashString(), sys.Prog.DesignHashString(); got != want {
		t.Fatalf("Optimize + emit.Compile hash to %s, the compiled design to %s", got, want)
	}
	return prog
}

// interpTwin instantiates an interpreter-mode engine over prog (sys's
// program, see analyzable) and sys's partition, so the two share node IDs
// and state layout and their state images can be compared word for word.
func interpTwin(t *testing.T, prog *emit.Program, sys *System) engine.Sim {
	t.Helper()
	cfg := sys.Config
	switch cfg.Engine {
	case EngineFullCycle:
		return engine.NewFullCycle(prog, cfg.Threads, engine.EvalInterp)
	case EngineActivity:
		return engine.NewActivity(prog, sys.Part, cfg.Activity, engine.EvalInterp)
	}
	t.Fatalf("unknown engine %v", cfg.Engine)
	return nil
}

// TestEvalModesLockstep is the PR's core acceptance test: on every testdata
// design and generated designs, for every engine, the kernel and interpreter
// evaluation modes must produce bit-identical state images over 200
// random-stimulus cycles, both must match the golden reference model on the
// outputs, and the stat counters (including Machine.Executed) must agree
// between modes. The interpreter engine runs over the same compiled program
// as the kernel engine, so the comparison covers every persistent state
// word; next values and temporaries are scratch, and the one-worker kernel
// sweep stores most registers' next values straight into their current
// words, which the interp stream cannot.
func TestEvalModesLockstep(t *testing.T) {
	cycles := 200
	if testing.Short() {
		cycles = 50
	}
	names, graphs := lockstepDesigns(t)
	for di, g := range graphs {
		for _, cfg := range evalLockstepConfigs() {
			cfg.Eval = engine.EvalKernel
			sysK, err := Build(g, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", names[di], cfg.Name, err)
			}
			prog := analyzable(t, g, sysK)
			simI := interpTwin(t, prog, sysK)
			ref, err := engine.NewReference(prog.Graph)
			if err != nil {
				t.Fatalf("%s/%s: %v", names[di], cfg.Name, err)
			}

			var inputs, outputs []*ir.Node
			for _, n := range sysK.Graph.Nodes {
				if n.Kind == ir.KindInput {
					inputs = append(inputs, n)
				}
				if n.IsOutput {
					outputs = append(outputs, n)
				}
			}
			rng := rand.New(rand.NewSource(int64(di)*101 + 7))
			for c := 0; c < cycles; c++ {
				for _, in := range inputs {
					v := bitvec.FromUint64(in.Width, rng.Uint64())
					if in.Name == "reset" {
						v = bitvec.FromUint64(1, uint64(rng.Intn(10)/9))
					}
					ref.Poke(in.ID, v)
					sysK.Sim.Poke(in.ID, v)
					simI.Poke(in.ID, v)
				}
				ref.Step()
				sysK.Sim.Step()
				simI.Step()
				stK, stI := persistent(sysK.Sim), persistent(simI)
				for w := range stK {
					if stK[w] != stI[w] {
						t.Fatalf("%s/%s cycle %d: state word %d: kernel %#x vs interp %#x",
							names[di], cfg.Name, c, w, stK[w], stI[w])
					}
				}
				for _, n := range outputs {
					if a, b := ref.Peek(n.ID), sysK.Sim.Peek(n.ID); !a.EqValue(b) {
						t.Fatalf("%s/%s cycle %d: output %q: reference %s vs kernel %s",
							names[di], cfg.Name, c, n.Name, a, b)
					}
				}
			}

			// Stat counters must not depend on the evaluation mode, and the
			// machine's retired-instruction counter must track the stats in
			// both modes (gsim-diag and the harness read either).
			a, b := sysK.Sim.Stats(), simI.Stats()
			if a.NodeEvals != b.NodeEvals || a.Activations != b.Activations ||
				a.Examinations != b.Examinations || a.InstrsExecuted != b.InstrsExecuted ||
				a.RegCommits != b.RegCommits {
				t.Fatalf("%s/%s: stats diverge between modes:\nkernel %+v\ninterp %+v",
					names[di], cfg.Name, *a, *b)
			}
			if ex := sysK.Sim.Machine().Executed; ex != a.InstrsExecuted {
				t.Fatalf("%s/%s: kernel Machine.Executed=%d vs stats %d", names[di], cfg.Name, ex, a.InstrsExecuted)
			}
			if ex := simI.Machine().Executed; ex != b.InstrsExecuted {
				t.Fatalf("%s/%s: interp Machine.Executed=%d vs stats %d", names[di], cfg.Name, ex, b.InstrsExecuted)
			}
			simI.Close()
			sysK.Close()
		}
	}
}
