package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"gsim/internal/emit"
	"gsim/internal/firrtl"
	"gsim/internal/gen"
	"gsim/internal/ir"
)

// repeatFIRRTL repeats subtrees inside single expressions, the shapes value
// numbering (emit.Compile) computes once: one operand at two widths through
// pads, one bits operand under several ranges, equal mux arms and muxes
// differing in one arm, a register's next value, and a memory write port
// whose address, data and enable share a subtree. Also a seed of
// FuzzKernelLockstep.
const repeatFIRRTL = `circuit Repeat :
  module Repeat :
    input clock : Clock
    input reset : UInt<1>
    input s : UInt<1>
    input a : UInt<6>
    input c : UInt<6>
    input w : UInt<90>
    input raddr : UInt<4>
    output o_pad : UInt<20>
    output o_padw : UInt<100>
    output o_bits : UInt<55>
    output o_mux : UInt<7>
    output o_muxc : UInt<12>
    output o_r : UInt<6>
    output o_mem : UInt<8>

    reg r : UInt<6>, clock with :
      reset => (reset, UInt<6>("h5"))

    mem m :
      data-type => UInt<8>
      depth => 16
      read-latency => 0
      write-latency => 1
      reader => rd
      writer => wr

    r <= xor(and(r, xor(a, c)), or(and(r, xor(a, c)), a))

    m.wr.addr <= bits(xor(a, c), 3, 0)
    m.wr.data <= cat(bits(xor(a, c), 1, 0), xor(a, c))
    m.wr.en <= orr(and(xor(a, c), c))
    m.wr.clk <= clock
    m.wr.mask <= UInt<1>(1)
    m.rd.addr <= raddr
    m.rd.en <= UInt<1>(1)
    m.rd.clk <= clock

    o_pad <= cat(pad(xor(a, c), 8), pad(xor(a, c), 12))
    o_padw <= xor(pad(xor(a, c), 100), pad(not(pad(xor(a, c), 70)), 100))
    o_bits <= cat(cat(bits(add(w, c), 7, 0), bits(add(w, c), 15, 8)), cat(bits(add(w, c), 7, 0), bits(add(w, c), 90, 60)))
    o_mux <= mux(s, add(a, c), add(a, c))
    o_muxc <= cat(mux(s, xor(a, c), a), mux(s, xor(a, c), c))
    o_r <= r
    o_mem <= m.rd.data
`

// TestNoRepeatedInstruction holds every preset's program to value
// numbering's invariant on the synthetic profiles (as built and through
// FIRRTL text), every testdata design and repeatFIRRTL: no node's code
// range holds two instructions equal in every field but the destination.
// The repeat design must reuse something under every preset.
func TestNoRepeatedInstruction(t *testing.T) {
	designs := map[string]func() (*ir.Graph, error){
		"repeat": func() (*ir.Graph, error) { return firrtl.Load(repeatFIRRTL) },
	}
	files, err := filepath.Glob("../../testdata/*.fir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata designs found: %v", err)
	}
	for _, fp := range files {
		designs[filepath.Base(fp)] = func() (*ir.Graph, error) { return firrtl.LoadFile(fp) }
	}
	profiles := []gen.Profile{gen.StuCoreLike()}
	if !testing.Short() {
		profiles = append(profiles, gen.RocketLike())
	}
	for _, p := range profiles {
		designs[p.Name] = func() (*ir.Graph, error) { return gen.BuildProfile(p), nil }
		designs[p.Name+".fir"] = func() (*ir.Graph, error) {
			var buf bytes.Buffer
			if err := firrtl.Write(&buf, gen.BuildProfile(p)); err != nil {
				return nil, err
			}
			return firrtl.Load(buf.String())
		}
	}
	for name, build := range designs {
		g, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, cfg := range []Config{GSIM(), Verilator(), Essent(), Arcilator()} {
			cd, err := CompileDesign(g, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.Name, err)
			}
			if id, in, ok := repeatedInstr(cd.Prog); ok {
				t.Errorf("%s/%s: node %q computes %+v twice", name, cfg.Name, cd.Graph.Nodes[id].Name, in)
			}
			if name == "repeat" && cd.Prog.Reused == 0 {
				t.Errorf("repeat/%s: nothing reused", cfg.Name)
			}
		}
	}
}

// repeatedInstr returns the first node whose code range holds two
// instructions equal in every field but D, and the instruction.
func repeatedInstr(p *emit.Program) (int, emit.Instr, bool) {
	seen := map[emit.Instr]bool{}
	for id, r := range p.Code {
		clear(seen)
		for _, in := range p.Instrs[r.Start:r.End] {
			in.D = 0
			if seen[in] {
				return id, in, true
			}
			seen[in] = true
		}
	}
	return 0, emit.Instr{}, false
}
