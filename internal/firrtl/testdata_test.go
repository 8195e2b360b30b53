package firrtl

import (
	"math/rand"
	"path/filepath"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/core"
	"gsim/internal/engine"
	"gsim/internal/ir"
)

// TestTestdataDesigns loads every bundled .fir design, builds it under the
// full GSIM pipeline — single-threaded and multi-threaded — and runs it in
// lockstep against the golden model with random stimulus: an end-to-end
// frontend+pipeline integration test on hand-written (rather than generated)
// input.
func TestTestdataDesigns(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.fir")
	if err != nil || len(files) < 3 {
		t.Fatalf("expected >= 3 testdata designs, got %d (%v)", len(files), err)
	}
	for _, path := range files {
		for _, cfg := range []core.Config{core.GSIM(), core.VerilatorMT(4)} {
			path, cfg := path, cfg
			t.Run(filepath.Base(path)+"/"+cfg.Name, func(t *testing.T) {
				g, err := LoadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := engine.NewReference(g)
				if err != nil {
					t.Fatal(err)
				}
				sys, err := core.Build(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				rng := rand.New(rand.NewSource(int64(len(path))))
				for cycle := 0; cycle < 200; cycle++ {
					for _, n := range g.Nodes {
						if n == nil || n.Kind != ir.KindInput || n.Name == "clock" {
							continue
						}
						v := bitvec.FromUint64(n.Width, rng.Uint64())
						if n.Name == "reset" {
							v = bitvec.FromUint64(1, uint64(rng.Intn(10)/9))
						}
						ref.Poke(n.ID, v)
						m := sys.Node(n.Name)
						sys.Sim.Poke(m.ID, v)
					}
					ref.Step()
					sys.Sim.Step()
					for _, n := range g.Nodes {
						if n == nil || !n.IsOutput {
							continue
						}
						m := sys.Node(n.Name)
						if m == nil {
							t.Fatalf("output %q missing after optimization", n.Name)
						}
						a, b := ref.Peek(n.ID), sys.Sim.Peek(m.ID)
						if !a.EqValue(b) {
							t.Fatalf("cycle %d: output %q: reference %s vs %s %s", cycle, n.Name, a, cfg.Name, b)
						}
					}
				}
			})
		}
	}
}

// TestFifoBehavior drives the bundled FIFO design functionally.
func TestFifoBehavior(t *testing.T) {
	g, err := LoadFile("../../testdata/fifo.fir")
	if err != nil {
		t.Fatal(err)
	}
	sim := refSim(t, g)
	poke(t, sim, g, "reset", 1)
	sim.Step()
	poke(t, sim, g, "reset", 0)

	// Push three values.
	for i, v := range []uint64{0x11, 0x22, 0x33} {
		poke(t, sim, g, "push", 1)
		poke(t, sim, g, "din", v)
		sim.Step()
		if got := peek(t, sim, g, "cnt"); got != uint64(i+1) {
			t.Fatalf("count after push %d = %d", i+1, got)
		}
	}
	poke(t, sim, g, "push", 0)
	// Pop them back in order.
	for _, want := range []uint64{0x11, 0x22, 0x33} {
		sim.Step() // settle dout for current head
		if got := peek(t, sim, g, "dout"); got != want {
			t.Fatalf("dout = %#x, want %#x", got, want)
		}
		poke(t, sim, g, "pop", 1)
		sim.Step()
		poke(t, sim, g, "pop", 0)
	}
	sim.Step()
	if got := peek(t, sim, g, "cnt"); got != 0 {
		t.Fatalf("count after draining = %d", got)
	}
}
