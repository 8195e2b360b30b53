package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/gen"
	"gsim/internal/ir"
	"gsim/internal/snapshot"
	"gsim/internal/trace"

	"math/rand"
)

// fuzzGraph decodes a byte string into a design. Inputs that parse as FIRRTL
// become that circuit (so the testdata corpus seeds real designs and their
// mutations); anything else seeds internal/gen's random circuit generator,
// with the shape knobs — node count, widths, memory, wide-value and reset
// fractions — drawn from the bytes so the fuzzer explores the design space,
// not just stimulus. Returns nil for inputs not worth simulating (parse
// errors on FIRRTL-looking text are fine — they fall through to gen — but
// designs too large to lockstep quickly are skipped).
func fuzzGraph(data []byte) *ir.Graph {
	if g := parseFIRRTL(data); g != nil {
		return g
	}
	if len(data) == 0 {
		return nil
	}
	at := func(i int) byte {
		return data[i%len(data)]
	}
	var seed int64
	if len(data) >= 8 {
		seed = int64(binary.LittleEndian.Uint64(data))
	} else {
		for i, b := range data {
			seed |= int64(b) << (8 * i)
		}
	}
	cfg := gen.RandomConfig{
		Nodes:     20 + int(at(8))%120,
		Inputs:    1 + int(at(9))%4,
		Regs:      1 + int(at(10))%14,
		MaxWidth:  1 + int(at(11))%90,
		MemDepth:  []int{0, 4, 16}[int(at(12))%3],
		WideFrac:  float64(int(at(13))%4) * 0.1,
		ResetFrac: float64(int(at(14))%3) * 0.4,
	}
	return gen.Random(seed, cfg)
}

// parseFIRRTL attempts to interpret the bytes as a FIRRTL circuit, bounding
// the result so a fuzz-mutated width or depth cannot blow up the lockstep
// run. A parser panic fails the run: firrtl.FuzzFIRRTLLoad holds the front
// end to "error, never panic", and this target must not hide a breach.
func parseFIRRTL(data []byte) *ir.Graph {
	parsed, err := firrtl.Load(string(data))
	if err != nil || parsed == nil {
		return nil
	}
	words := 0
	for _, n := range parsed.Nodes {
		if n == nil || n.Width < 0 || n.Width > 4096 {
			return nil
		}
		words += bitvec.WordsFor(n.Width)
	}
	if len(parsed.Nodes) > 4000 || words > 1<<16 {
		return nil
	}
	for _, m := range parsed.Mems {
		if m.Depth > 1<<12 || m.Width > 4096 {
			return nil
		}
	}
	return parsed
}

// FuzzKernelLockstep is the generative conformance harness behind the kernel
// compiler: for every fuzz input, decode a design, then run the fused kernel
// pipeline, the pre-fusion kernel baseline, the reference interpreter, and
// the independent ir-reference oracle in lockstep, failing on any state or
// stat divergence. Every temporary region is filled with random words before
// every Step, and only the persistent words are compared: temporaries are
// scratch, so stale ones must never reach a result. The seed corpus is the
// committed testdata designs plus a handful of byte seeds for the generator
// path; `go test -fuzz=FuzzKernelLockstep` explores from there (CI runs a
// 30s smoke).
func FuzzKernelLockstep(f *testing.F) {
	files, err := filepath.Glob("../../testdata/*.fir")
	if err != nil || len(files) == 0 {
		f.Fatalf("no testdata designs found: %v", err)
	}
	for _, fp := range files {
		data, err := os.ReadFile(fp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(padFoldFIRRTL))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("gsim"))
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x40, 0x02, 0x07, 0x50, 0x01, 0x03, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		if g == nil {
			t.Skip("input decodes to no design")
		}
		sysK, err := Build(g, GSIM())
		if err != nil {
			t.Skip("design does not compile:", err)
		}
		defer sysK.Close()
		prog := analyzable(t, g, sysK)
		simNF := engine.NewActivity(prog, sysK.Part, sysK.Config.Activity, 1, engine.EvalKernelNoFuse)
		simI := engine.NewActivity(prog, sysK.Part, sysK.Config.Activity, 1, engine.EvalInterp)
		// The multi-worker axis: two workers on the merged-level schedule,
		// over the partition and over singleton nodes, must track the same
		// trajectory.
		sim2 := engine.NewActivity(prog, sysK.Part, sysK.Config.Activity, 2, engine.EvalKernel)
		defer sim2.Close()
		simF2 := engine.NewFullCycle(prog, 2, engine.EvalKernel)
		defer simF2.Close()
		// The snapshot axis: this engine is serialized through the versioned
		// snapshot format and restored into a fresh engine mid-run; its
		// trajectory and stats must never diverge from the uninterrupted one.
		var simS engine.Sim = engine.NewActivity(prog, sysK.Part, sysK.Config.Activity, 1, engine.EvalKernel)
		ref, err := engine.NewReference(prog.Graph)
		if err != nil {
			t.Fatal(err)
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

		// The simplify axis: the same design built with the generated
		// algebraic rule set disabled. The optimized graphs differ (that is
		// the point), so node IDs do too — the comparison maps the surviving
		// interface nodes by name and requires identical per-cycle values AND
		// byte-identical VCD streams over that common set. The unsimplified
		// build may legitimately fail to compile (e.g. a wide division the
		// rules previously folded away), which skips the axis, not the run.
		cfgNA := GSIM()
		cfgNA.Name = "gsim-noalg"
		cfgNA.Opt.NoAlgebraic = true
		sysNA, errNA := Build(g, cfgNA)
		var naByID map[int]*ir.Node // sysK interface node ID -> NA twin
		var commonK, commonNA []*ir.Node
		var vcdK, vcdNA bytes.Buffer
		var trK, trNA *trace.VCD
		if errNA == nil {
			defer sysNA.Close()
			naByID = make(map[int]*ir.Node)
			for _, n := range append(append([]*ir.Node{}, inputs...), outputs...) {
				m := sysNA.Graph.FindNode(n.Name)
				if m == nil || m.Width != n.Width {
					continue // interface drift would be a bug, but not this axis's
				}
				naByID[n.ID] = m
				commonK = append(commonK, n)
				commonNA = append(commonNA, m)
			}
			trK, err = trace.NewVCD(&vcdK, sysK.Prog, commonK, trace.Options{Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			trNA, err = trace.NewVCD(&vcdNA, sysNA.Prog, commonNA, trace.Options{Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			sysK.Sim.(interface{ AttachTracer(engine.Tracer) }).AttachTracer(trK)
			sysNA.Sim.(interface{ AttachTracer(engine.Tracer) }).AttachTracer(trNA)
		}
		// The lane axis: 2 lanes of each engine kind over one shared plan.
		// Lane 0 rides the main stimulus and must track the kernel engine's
		// state image word for word; lane 1 runs divergent stimulus beside a
		// scalar twin of its own kind — parked at random, so a parked lane's
		// freeze fuzzes too — and finishes with a snapshot epilogue where the
		// lane's blob must equal the twin's byte for byte.
		type laneAxis struct {
			kind  string
			lanes *engine.Lanes
			twin  engine.Compiled
		}
		var laneAxes []laneAxis
		for kind, pl := range map[string]engine.Plan{
			"fullcycle": engine.PlanFullCycle(prog, 1, engine.EvalKernel),
			"activity":  engine.PlanActivity(prog, sysK.Part, sysK.Config.Activity, 1, engine.EvalKernel),
		} {
			ax := laneAxis{kind, newLanes(pl, 2), pl.NewEngine()}
			defer ax.lanes.Close()
			defer ax.twin.Close()
			laneAxes = append(laneAxes, ax)
		}
		rngL1 := rand.New(rand.NewSource(int64(len(data))*77 + 3))

		rng := rand.New(rand.NewSource(int64(len(data))*31 + 5))
		rngP := rand.New(rand.NewSource(int64(len(data))*13 + 1))
		const cycles = 24
		for c := 0; c < cycles; c++ {
			if c == cycles/2 {
				// Snapshot boundary between Steps: save, restore into a
				// brand-new engine, and continue on the replacement.
				blob, err := snapshot.Save(simS)
				if err != nil {
					t.Fatal(err)
				}
				fresh := engine.NewActivity(prog, sysK.Part, sysK.Config.Activity, 1, engine.EvalKernel)
				if err := snapshot.Restore(fresh, blob); err != nil {
					t.Fatal(err)
				}
				simS = fresh
			}
			for _, in := range inputs {
				v := bitvec.FromUint64(in.Width, rng.Uint64())
				if in.Name == "reset" {
					v = bitvec.FromUint64(1, uint64(rng.Intn(8)/7))
				}
				ref.Poke(in.ID, v)
				sysK.Sim.Poke(in.ID, v)
				simNF.Poke(in.ID, v)
				simI.Poke(in.ID, v)
				sim2.Poke(in.ID, v)
				simF2.Poke(in.ID, v)
				simS.Poke(in.ID, v)
				// Lane 1 and its twin always receive the divergent stimulus —
				// pokes land on a parked lane too (they write state, they do
				// not step it), and the twin mirrors that exactly.
				v1 := bitvec.FromUint64(in.Width, rngL1.Uint64())
				for _, ax := range laneAxes {
					ax.lanes.Poke(0, in.ID, v)
					ax.lanes.Poke(1, in.ID, v1)
					ax.twin.Poke(in.ID, v1)
				}
				if errNA == nil {
					if m, ok := naByID[in.ID]; ok {
						sysNA.Sim.Poke(m.ID, v)
					}
				}
			}
			lane1Live := rngL1.Intn(6) != 0
			for _, sim := range []engine.Sim{sysK.Sim, simNF, simI, sim2, simF2, simS} {
				poisonTemps(sim, rngP)
			}
			ref.Step()
			sysK.Sim.Step()
			simNF.Step()
			simI.Step()
			sim2.Step()
			simF2.Step()
			simS.Step()
			for _, ax := range laneAxes {
				ax.lanes.SetLive(1, lane1Live)
				ax.lanes.Step()
				if lane1Live {
					ax.twin.Step()
				}
			}
			if errNA == nil {
				sysNA.Sim.Step()
				for i, n := range commonK {
					if a, b := sysK.Sim.Peek(n.ID), sysNA.Sim.Peek(commonNA[i].ID); !a.EqValue(b) {
						t.Fatalf("cycle %d: node %q: simplified %s vs unsimplified %s", c, n.Name, a, b)
					}
				}
			}
			stK := persistent(sysK.Sim)
			states := map[string][]uint64{
				"kernel-nofuse":      persistent(simNF),
				"interp":             persistent(simI),
				"activity-2T":        persistent(sim2),
				"fullcycle-2T":       persistent(simF2),
				"snapshot-roundtrip": persistent(simS),
			}
			for _, ax := range laneAxes {
				lane0, err := ax.lanes.CaptureLane(0)
				if err != nil {
					t.Fatal(err)
				}
				states[ax.kind+"-lane0"] = lane0.State
				lane1, err := ax.lanes.CaptureLane(1)
				if err != nil {
					t.Fatal(err)
				}
				for w, tw := range persistent(ax.twin) {
					if lane1.State[w] != tw {
						t.Fatalf("cycle %d: state word %d: %s lane1 %#x vs scalar twin %#x (live=%v)",
							c, w, ax.kind, lane1.State[w], tw, lane1Live)
					}
				}
			}
			for name, st := range states {
				for w := range stK {
					if stK[w] != st[w] {
						t.Fatalf("cycle %d: state word %d: kernel %#x vs %s %#x",
							c, w, stK[w], name, st[w])
					}
				}
			}
			for _, n := range outputs {
				if a, b := ref.Peek(n.ID), sysK.Sim.Peek(n.ID); !a.EqValue(b) {
					t.Fatalf("cycle %d: output %q: reference %s vs kernel %s", c, n.Name, a, b)
				}
			}
		}

		// Lane epilogue: the divergent lane's snapshot must be byte-identical
		// to its scalar twin's — one blob format across shapes, stats and all.
		for _, ax := range laneAxes {
			laneBlob, err := snapshot.SaveLane(ax.lanes, 1)
			if err != nil {
				t.Fatal(err)
			}
			twinBlob, err := snapshot.Save(ax.twin)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(laneBlob, twinBlob) {
				t.Fatalf("%s lane 1 snapshot differs from scalar twin (%d vs %d bytes)",
					ax.kind, len(laneBlob), len(twinBlob))
			}
		}

		// Stats must not depend on the evaluation mode — nor on a snapshot
		// round-trip through a fresh engine mid-run.
		a, b, nf := sysK.Sim.Stats(), simI.Stats(), simNF.Stats()
		if s := simS.Stats(); *a != *s {
			t.Fatalf("stats diverge kernel vs snapshot-roundtrip:\nkernel   %+v\nsnapshot %+v", *a, *s)
		}
		for name, other := range map[string]*engine.Stats{"interp": b, "kernel-nofuse": nf} {
			if a.NodeEvals != other.NodeEvals || a.Activations != other.Activations ||
				a.Examinations != other.Examinations || a.InstrsExecuted != other.InstrsExecuted ||
				a.RegCommits != other.RegCommits {
				t.Fatalf("stats diverge kernel vs %s:\nkernel %+v\n%s %+v", name, *a, name, *other)
			}
		}

		// Simplify-axis epilogue: the two VCD streams over the shared
		// interface nodes must be byte-identical. Stats beyond that are
		// allowed to differ — the graphs do, and a few rules deliberately
		// trade one wide instruction for two narrow ones (leq-zero becomes
		// not(orr x)), so strict instruction-count monotonicity does not
		// hold. What must never happen is gross pessimization: each rewrite
		// replaces one node with at most two, so anything past 2x (plus
		// scheduling slack) means the rule set is expanding work, not
		// simplifying it.
		if errNA == nil {
			if err := trK.Close(); err != nil {
				t.Fatal(err)
			}
			if err := trNA.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(vcdK.Bytes(), vcdNA.Bytes()) {
				t.Fatalf("VCD streams diverge between simplified and unsimplified builds (%d vs %d bytes)",
					vcdK.Len(), vcdNA.Len())
			}
			if ks, ns := sysK.Sim.Stats(), sysNA.Sim.Stats(); ks.InstrsExecuted > 2*ns.InstrsExecuted+64 {
				t.Fatalf("simplified build executed far more instructions: %d vs %d",
					ks.InstrsExecuted, ns.InstrsExecuted)
			}
		}
	})
}
