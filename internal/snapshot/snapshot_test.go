package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/core"
	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/gen"
	"gsim/internal/harness"
	"gsim/internal/ir"
	"gsim/internal/partition"
	"gsim/internal/passes"
	"gsim/internal/snapshot"
	"gsim/internal/trace"
)

// loadDesign elaborates one committed testdata design.
func loadDesign(t testing.TB, name string) *ir.Graph {
	t.Helper()
	g, err := firrtl.LoadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// stim returns a deterministic, stateless input value for (cycle, input):
// every run of the same design replays the identical stimulus regardless of
// how it is segmented around a snapshot.
func stim(width int, cycle, idx int) bitvec.BV {
	v := uint64(cycle+1)*2654435761 ^ uint64(idx)*0x9e3779b97f4a7c15
	return bitvec.FromUint64(width, v)
}

// inputsOf collects a graph's input nodes in ID order, treating "reset"
// specially is the driver's business (stim keeps reset mostly deasserted by
// masking to 1 bit naturally; dedicated reset toggles come from the cycle
// pattern below).
func inputsOf(g *ir.Graph) []*ir.Node {
	var ins []*ir.Node
	for _, n := range g.Nodes {
		if n.Kind == ir.KindInput {
			ins = append(ins, n)
		}
	}
	return ins
}

// drive pokes every input for one cycle. Reset-named inputs pulse on a fixed
// sparse pattern so the reset slow path is exercised on both sides of the
// snapshot boundary.
func drive(sim engine.Sim, ins []*ir.Node, cycle int) {
	for i, n := range ins {
		if n.Name == "reset" {
			v := uint64(0)
			if cycle%11 == 7 {
				v = 1
			}
			sim.Poke(n.ID, bitvec.FromUint64(1, v))
			continue
		}
		sim.Poke(n.ID, stim(n.Width, cycle, i))
	}
}

// matrixCell is one row of the round-trip matrix: the configuration that
// captures the snapshot, the one that resumes from it, and whether the
// cell's runs compile once.
type matrixCell struct {
	name         string
	save, resume core.Config
	compileOnce  bool
}

// matrixCells enumerates the acceptance matrix: 3 eval modes x {compiled per
// run, compiled once} x the full-cycle engine at {1,2,4} workers and the
// essential-signal engine (one worker), each captured and resumed at the
// same worker count; the full-cycle cells again (the "parallel-" rows)
// resumed at the next count of {1,2,4}, 4 wrapping to 1; and the
// "parallel-activity-" rows, captured by the full-cycle engine at {1,2,4}
// workers under the essential-signal configuration's optimization (so the
// same program and design hash) and resumed by the one-worker
// essential-signal engine, which re-arms every supernode from a capture that
// carries no activity: a snapshot must carry over between worker counts and
// engines in every mode. A
// compile-once cell ("-cotrue") draws every engine of one configuration from
// one shared core.CompiledDesign, as a replica's sessions of one spec do, so
// the snapshot restores into a sibling of the engine that took it; the
// others ("-cofalse") build every run from scratch, as a replica receiving a
// migration does.
func matrixCells() []matrixCell {
	var cells []matrixCell
	next := map[int]int{1: 2, 2: 4, 4: 1}
	for _, row := range []string{"fullcycle", "parallel", "activity", "parallel-activity"} {
		workers := []int{1, 2, 4}
		if row == "activity" {
			workers = []int{1}
		}
		for _, eval := range []engine.EvalMode{engine.EvalKernel, engine.EvalInterp, engine.EvalKernelNoFuse} {
			for _, threads := range workers {
				for _, once := range []bool{false, true} {
					fullCycle := func(threads int) core.Config {
						cfg := core.VerilatorMT(threads)
						cfg.Eval = eval
						return cfg
					}
					activity := core.GSIM()
					activity.Eval = eval
					c := matrixCell{name: fmt.Sprintf("%s-%s-%dT-co%v", row, eval, threads, once), compileOnce: once}
					switch row {
					case "fullcycle":
						c.save, c.resume = fullCycle(threads), fullCycle(threads)
					case "parallel":
						c.save, c.resume = fullCycle(threads), fullCycle(next[threads])
					case "activity":
						c.save, c.resume = activity, activity
					case "parallel-activity":
						c.save, c.resume = fullCycle(threads), activity
						c.save.Opt = activity.Opt
					}
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// builder returns how a cell's runs get their systems: core.Build per run,
// or, compiling once, a new engine of the configuration's one shared
// compiled design.
func builder(t *testing.T, g *ir.Graph, compileOnce bool) func(core.Config) *core.System {
	designs := map[string]*core.CompiledDesign{}
	return func(cfg core.Config) *core.System {
		t.Helper()
		if !compileOnce {
			sys, err := core.Build(g, cfg)
			if err != nil {
				t.Fatalf("%s: build: %v", cfg.Name, err)
			}
			return sys
		}
		key := core.CacheKey("", cfg)
		d := designs[key]
		if d == nil {
			var err error
			if d, err = core.CompileDesign(g, cfg); err != nil {
				t.Fatalf("%s: compile: %v", cfg.Name, err)
			}
			designs[key] = d
		}
		sim, err := d.NewSim(cfg)
		if err != nil {
			t.Fatalf("%s: new sim: %v", cfg.Name, err)
		}
		return &core.System{Config: d.Config, Graph: d.Graph, Prog: d.Prog, Part: d.Part, Sim: sim}
	}
}

// runTraced builds a simulator, optionally restores a snapshot into it,
// drives cycles [from, to) with the shared stimulus, captures the VCD bytes
// produced, and returns the system still open.
func runTraced(t *testing.T, build func(core.Config) *core.System, cfg core.Config, blob []byte, from, to int, vcd *bytes.Buffer) *core.System {
	t.Helper()
	sys := build(cfg)
	opts := trace.Options{}
	if blob != nil {
		if err := snapshot.Restore(sys.Sim, blob); err != nil {
			t.Fatalf("%s: restore: %v", cfg.Name, err)
		}
		opts.Resume = &trace.Resume{Time: sys.Sim.Stats().Cycles, State: sys.Sim.Machine().State}
	}
	tr, err := trace.NewVCD(vcd, sys.Prog, nil, opts)
	if err != nil {
		t.Fatalf("%s: vcd: %v", cfg.Name, err)
	}
	sys.Sim.(interface{ AttachTracer(engine.Tracer) }).AttachTracer(tr)
	ins := inputsOf(sys.Graph)
	for c := from; c < to; c++ {
		drive(sys.Sim, ins, c)
		sys.Sim.Step()
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("%s: vcd close: %v", cfg.Name, err)
	}
	return sys
}

// trajectoryStats keeps the counters the design and the cycle count fix —
// cycles and evaluable nodes — and zeroes the ones that count an engine's
// own work, which engine kinds count differently.
func trajectoryStats(s engine.Stats) engine.Stats {
	return engine.Stats{Cycles: s.Cycles, EvaluableNodes: s.EvaluableNodes}
}

// noNodesFIRRTL has no node with code, so its partition has no supernode and
// an essential-signal capture names the empty partition's fingerprint.
const noNodesFIRRTL = "circuit I :\n  module I :\n    input clock : Clock\n    input a : UInt<8>\n"

// TestRoundTripMatrix is the snapshot determinism acceptance test: for every
// cell, a run of K cycles, snapshot, restore into a fresh engine, then M more
// cycles must be bit-identical — final persistent words, memory arrays, stat
// counters, and VCD bytes — to an uninterrupted K+M-cycle run of the resuming
// configuration. Examinations are the one counter that depends on the worker
// count (they count active-word tests, and each chunk pads to whole words),
// so a row that changes workers carries the capturing side's into the
// resumed total and is compared without them. A row that changes
// engines carries the capturing engine's work counters into the resumed
// total, so it compares the counters the trajectory fixes (trajectoryStats),
// not the work each engine did.
func TestRoundTripMatrix(t *testing.T) {
	const K, M = 16, 16
	noNodes, err := firrtl.Load(noNodesFIRRTL)
	if err != nil {
		t.Fatal(err)
	}
	for _, designName := range []string{"fifo.fir", "lfsr.fir", "no-nodes"} {
		g := noNodes
		if designName != "no-nodes" {
			g = loadDesign(t, designName)
		}
		for _, c := range matrixCells() {
			t.Run(designName+"/"+c.name, func(t *testing.T) {
				build := builder(t, g, c.compileOnce)
				// Uninterrupted K+M-cycle run.
				var goldVCD bytes.Buffer
				gold := runTraced(t, build, c.resume, nil, 0, K+M, &goldVCD)
				defer gold.Close()

				// Segment 1: K cycles, then snapshot.
				var vcd1 bytes.Buffer
				seg1 := runTraced(t, build, c.save, nil, 0, K, &vcd1)
				blob, err := snapshot.Save(seg1.Sim)
				if err != nil {
					t.Fatal(err)
				}
				seg1.Close()

				// Segment 2: a new engine, restore, M more cycles.
				var vcd2 bytes.Buffer
				seg2 := runTraced(t, build, c.resume, blob, K, K+M, &vcd2)
				defer seg2.Close()

				a, b := gold.Sim.Machine(), seg2.Sim.Machine()
				for w := range a.State[:a.Prog.StateWords] {
					if a.State[w] != b.State[w] {
						t.Fatalf("state word %d: uninterrupted %#x vs resumed %#x", w, a.State[w], b.State[w])
					}
				}
				for mi := range a.Mems {
					for w := range a.Mems[mi] {
						if a.Mems[mi][w] != b.Mems[mi][w] {
							t.Fatalf("mem %d word %d: uninterrupted %#x vs resumed %#x", mi, w, a.Mems[mi][w], b.Mems[mi][w])
						}
					}
				}
				ga, gb := *gold.Sim.Stats(), *seg2.Sim.Stats()
				if c.save.Threads != c.resume.Threads {
					ga.Examinations, gb.Examinations = 0, 0
				}
				crossEngine := c.save.Engine != c.resume.Engine
				if crossEngine {
					ga, gb = trajectoryStats(ga), trajectoryStats(gb)
				}
				if ga != gb {
					t.Fatalf("stats diverge:\nuninterrupted %+v\nresumed       %+v", ga, gb)
				}
				if !crossEngine && a.Executed != b.Executed {
					t.Fatalf("Machine.Executed: uninterrupted %d vs resumed %d", a.Executed, b.Executed)
				}
				resumed := append(append([]byte{}, vcd1.Bytes()...), vcd2.Bytes()...)
				if !bytes.Equal(goldVCD.Bytes(), resumed) {
					t.Fatalf("VCD bytes diverge: uninterrupted %d bytes, resumed %d bytes", goldVCD.Len(), len(resumed))
				}
			})
		}
	}
}

// TestCrossEngineRestore pins snapshot portability across engines and
// worker counts: a checkpoint taken by the one-worker essential-signal
// engine ("activity-") or the one-worker full-cycle engine ("fullcycle-")
// restores into the full-cycle engine at several worker counts, compiled
// under the capturing configuration's optimization, and the continued runs
// match the capturing engine's uninterrupted trajectory exactly — the state
// section is the persistent words, which no engine or worker count lays out
// differently, and a full-cycle engine needs none of the activity section.
func TestCrossEngineRestore(t *testing.T) {
	const K, M = 16, 16
	g := loadDesign(t, "fifo.fir")
	for _, src := range []struct {
		label string
		cfg   core.Config
	}{{"activity", core.GSIM()}, {"fullcycle", core.Verilator()}} {
		gold, err := core.Build(g, src.cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer gold.Close()
		ins := inputsOf(gold.Graph)
		for c := 0; c < K+M; c++ {
			drive(gold.Sim, ins, c)
			gold.Sim.Step()
		}

		seg1, err := core.Build(g, src.cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer seg1.Close()
		for c := 0; c < K; c++ {
			drive(seg1.Sim, ins, c)
			seg1.Sim.Step()
		}
		blob, err := snapshot.Save(seg1.Sim)
		if err != nil {
			t.Fatal(err)
		}

		for _, threads := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s-to-%dT", src.label, threads), func(t *testing.T) {
				cfg := core.VerilatorMT(threads)
				cfg.Opt = src.cfg.Opt
				dst, err := core.Build(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer dst.Close()
				if err := snapshot.Restore(dst.Sim, blob); err != nil {
					t.Fatal(err)
				}
				dins := inputsOf(dst.Graph)
				for c := K; c < K+M; c++ {
					drive(dst.Sim, dins, c)
					dst.Sim.Step()
				}
				sw := gold.Prog.StateWords
				ga, gb := gold.Sim.Machine().State[:sw], dst.Sim.Machine().State[:sw]
				for w := range ga {
					if ga[w] != gb[w] {
						t.Fatalf("state word %d: %s %#x vs full-cycle %dT %#x", w, src.label, ga[w], threads, gb[w])
					}
				}
			})
		}
	}
}

// TestRestoreIntoUsedEngine pins that restoring does not depend on engine
// freshness: an engine that already simulated a different trajectory restores
// to exactly the same continuation as a fresh one.
func TestRestoreIntoUsedEngine(t *testing.T) {
	const K, M = 12, 12
	g := loadDesign(t, "fifo.fir")
	src, err := core.Build(g, core.GSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ins := inputsOf(src.Graph)
	for c := 0; c < K; c++ {
		drive(src.Sim, ins, c)
		src.Sim.Step()
	}
	blob, err := snapshot.Save(src.Sim)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := core.Build(g, core.GSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	used, err := core.Build(g, core.GSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer used.Close()
	// Pollute the "used" engine with an unrelated trajectory first.
	uins := inputsOf(used.Graph)
	for c := 0; c < 7; c++ {
		drive(used.Sim, uins, c+1000)
		used.Sim.Step()
	}

	for _, sys := range []*core.System{fresh, used} {
		if err := snapshot.Restore(sys.Sim, blob); err != nil {
			t.Fatal(err)
		}
	}
	fins := inputsOf(fresh.Graph)
	for c := K; c < K+M; c++ {
		drive(fresh.Sim, fins, c)
		drive(used.Sim, uins, c)
		fresh.Sim.Step()
		used.Sim.Step()
	}
	sw := fresh.Prog.StateWords
	fa, fb := fresh.Sim.Machine().State[:sw], used.Sim.Machine().State[:sw]
	for w := range fa {
		if fa[w] != fb[w] {
			t.Fatalf("state word %d: fresh-restore %#x vs used-restore %#x", w, fa[w], fb[w])
		}
	}
	if sa, sb := *fresh.Sim.Stats(), *used.Sim.Stats(); sa != sb {
		t.Fatalf("stats diverge:\nfresh %+v\nused  %+v", sa, sb)
	}
}

// TestResetIsPowerOn pins the session-pooling contract: Reset on a used
// engine captures bit-identically to a never-stepped engine of the same
// build, for every engine kind.
func TestResetIsPowerOn(t *testing.T) {
	g := loadDesign(t, "fifo.fir")
	for _, cfg := range []core.Config{core.Verilator(), core.VerilatorMT(2), core.GSIM()} {
		t.Run(cfg.Name, func(t *testing.T) {
			fresh, err := core.Build(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			used, err := core.Build(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer used.Close()
			ins := inputsOf(used.Graph)
			for c := 0; c < 20; c++ {
				drive(used.Sim, ins, c)
				used.Sim.Step()
			}
			used.Sim.Reset()

			fs, us := fresh.Sim.(engine.Snapshotter).CaptureState(), used.Sim.(engine.Snapshotter).CaptureState()
			fb, err := snapshot.Encode(fs, fresh.Prog)
			if err != nil {
				t.Fatal(err)
			}
			ub, err := snapshot.Encode(us, used.Prog)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fb, ub) {
				t.Fatalf("Reset is not power-on: fresh capture %d bytes != reset capture %d bytes\nfresh %+v\nreset %+v",
					len(fb), len(ub), fs.Stats, us.Stats)
			}
			// Close composes with Reset in any order, repeatedly.
			used.Sim.Close()
			used.Sim.Reset()
			used.Sim.Close()
		})
	}
}

// TestRestoreValidation exercises every refusal path: wrong design, wrong
// partition shape, corrupt and truncated blobs, bad version.
func TestRestoreValidation(t *testing.T) {
	g := loadDesign(t, "fifo.fir")
	sys, err := core.Build(g, core.GSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	blob, err := snapshot.Save(sys.Sim)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong-design", func(t *testing.T) {
		other, err := core.Build(loadDesign(t, "counter.fir"), core.GSIM())
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		if err := snapshot.Restore(other.Sim, blob); err == nil {
			t.Fatal("restore onto a different design succeeded")
		}
	})
	t.Run("wrong-opt-level", func(t *testing.T) {
		other, err := core.Build(g, core.Essent()) // different passes => different program
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		if err := snapshot.Restore(other.Sim, blob); err == nil {
			t.Fatal("restore onto a different optimization level succeeded")
		}
	})
	t.Run("wrong-partition", func(t *testing.T) {
		cfg := core.GSIM()
		cfg.MaxSupernode = 64 // same program, different supernode shape
		other, err := core.Build(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		if other.Prog.DesignHash() != sys.Prog.DesignHash() {
			t.Skip("partition cap changed the program; cell not applicable")
		}
		if err := snapshot.Restore(other.Sim, blob); err == nil {
			t.Fatal("restore onto a different partition shape succeeded")
		}
	})
	t.Run("same-count-other-members", func(t *testing.T) {
		// The design hash does not cover the partition: an engine over the
		// same program whose partition has as many supernodes but other
		// members must refuse the blob, naming both partitions.
		og, _, err := core.Optimize(g, sys.Config.Opt)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := emit.Compile(og)
		if err != nil {
			t.Fatal(err)
		}
		if prog.DesignHash() != sys.Prog.DesignHash() {
			t.Fatal("core.Optimize + emit.Compile built another program than the design's")
		}
		moved := shiftMember(t, sys.Part)
		other := engine.NewActivity(prog, moved, sys.Config.Activity, engine.EvalKernel)
		defer other.Close()
		err = snapshot.Restore(other, blob)
		if err == nil {
			t.Fatal("restore onto a partition with other members succeeded")
		}
		for _, fp := range []uint64{sys.Part.Fingerprint(), moved.Fingerprint()} {
			if !strings.Contains(err.Error(), fmt.Sprintf("%016x", fp)) {
				t.Fatalf("the refusal %q does not name partition %016x", err, fp)
			}
		}
	})
	t.Run("v1", func(t *testing.T) {
		err := snapshot.Restore(sys.Sim, v1Blob(t, blob, sys.Prog))
		if err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("restore of a version-1 blob returned %v, want the version refusal", err)
		}
	})
	t.Run("v2", func(t *testing.T) {
		err := snapshot.Restore(sys.Sim, fullImageBlob(t, blob, sys.Prog, 2))
		if err == nil || !strings.Contains(err.Error(), "version 2") {
			t.Fatalf("restore of a version-2 blob returned %v, want the version refusal", err)
		}
	})
	t.Run("v3-full-image", func(t *testing.T) {
		// A v3 header over a state section of the old length — persistent
		// words, next values and the temporary region — is refused by the
		// engine, which names both lengths.
		p := sys.Prog
		err := snapshot.Restore(sys.Sim, fullImageBlob(t, blob, p, snapshot.Version))
		if want := fmt.Sprintf("state image is %d words, engine has %d", p.NumWords, p.StateWords); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("restore of a full-image v3 blob returned %v, want a refusal naming %q", err, want)
		}
	})
	t.Run("old-layout", func(t *testing.T) {
		// counter-old-layout.snap was saved by the build before register next
		// values left the persistent words (gsim -engine gsim -cycles 5
		// -poke en=1 testdata/counter.fir): its state section still carries
		// them, and its header the old design hash, which refuses it.
		old, err := os.ReadFile("testdata/counter-old-layout.snap")
		if err != nil {
			t.Fatal(err)
		}
		counter, err := core.Build(loadDesign(t, "counter.fir"), core.GSIM())
		if err != nil {
			t.Fatal(err)
		}
		defer counter.Close()
		if err := snapshot.Restore(counter.Sim, old); err == nil || !strings.Contains(err.Error(), "design hash") {
			t.Fatalf("restore of an old-layout blob returned %v, want the design-hash refusal", err)
		}
	})
	t.Run("pending-registers", func(t *testing.T) {
		var reg int32
		for _, n := range sys.Graph.Nodes {
			if n.Kind == ir.KindReg {
				reg = int32(n.ID)
			}
		}
		err := snapshot.Restore(sys.Sim, pendingBlob(blob, reg))
		if err == nil || !strings.Contains(err.Error(), "1 pending registers") {
			t.Fatalf("restore of a blob listing a pending register returned %v, want the refusal", err)
		}
	})
	// Well-formed blobs whose defects only the engine sees: each is refused
	// with its own message, and the engine still saves the state it had.
	for _, c := range []struct {
		name, want string
		blob       []byte
	}{
		{"miscounted-evaluable-nodes", "evaluable nodes", miscountedBlob(t, blob, sys.Prog)},
		{"active-not-ascending", "active supernode list not ascending", unorderedBlob(t, blob, sys.Prog)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := snapshot.Restore(sys.Sim, c.blob); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("restore returned %v, want a refusal naming %q", err, c.want)
			}
			after, err := snapshot.Save(sys.Sim)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, blob) {
				t.Fatal("the refused restore changed the engine")
			}
		})
	}
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 7, 43, len(blob) / 2, len(blob) - 1} {
			if err := snapshot.Restore(sys.Sim, blob[:n]); err == nil {
				t.Fatalf("restore of %d-byte prefix succeeded", n)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte{}, blob...)
		bad[0] ^= 0xff
		if err := snapshot.Restore(sys.Sim, bad); err == nil {
			t.Fatal("restore with corrupt magic succeeded")
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte{}, blob...)
		bad[8] = 0xfe
		if err := snapshot.Restore(sys.Sim, bad); err == nil {
			t.Fatal("restore with unknown version succeeded")
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		bad := append(append([]byte{}, blob...), 0xaa)
		if err := snapshot.Restore(sys.Sim, bad); err == nil {
			t.Fatal("restore with trailing bytes succeeded")
		}
	})
}

// shiftMember returns a copy of part with the last member of the first
// supernode holding two or more moved to the front of the next one: the same
// supernode count, other members, still a topological interval order.
func shiftMember(t *testing.T, part *partition.Result) *partition.Result {
	t.Helper()
	moved := &partition.Result{Kind: part.Kind, SupOf: append([]int32(nil), part.SupOf...)}
	for _, m := range part.Members {
		moved.Members = append(moved.Members, append([]int32(nil), m...))
	}
	for s := 0; s+1 < len(moved.Members); s++ {
		if m := moved.Members[s]; len(m) >= 2 {
			id := m[len(m)-1]
			moved.Members[s] = m[:len(m)-1]
			moved.Members[s+1] = append([]int32{id}, moved.Members[s+1]...)
			moved.SupOf[id] = int32(s + 1)
			return moved
		}
	}
	t.Fatal("no supernode of two or more members to move one from")
	return nil
}

// partPrintAt returns the offset of a blob's partition fingerprint.
func partPrintAt(t testing.TB, blob []byte, p *emit.Program) int {
	t.Helper()
	st, err := snapshot.Decode(blob, p)
	if err != nil {
		t.Fatal(err)
	}
	at := 8 + 4 + 32 + 8 // header
	at += 8 + 8*len(st.State) + 8
	for _, m := range st.Mems {
		at += 8 + 8*len(m)
	}
	return at + 8 + 8*8 + 8 // executed, stats, supCount
}

// pendingBlob rewrites a current blob to list register id as pending: the
// pending section, a zero count, ends the blob.
func pendingBlob(blob []byte, id int32) []byte {
	out := append([]byte{}, blob[:len(blob)-8]...)
	out = binary.LittleEndian.AppendUint64(out, 1)
	return binary.LittleEndian.AppendUint32(out, uint32(id))
}

// editedBlob decodes a current blob of p, applies edit to the state, and
// encodes it again: a well-formed blob carrying a defect only the engine's
// checks can see.
func editedBlob(t testing.TB, blob []byte, p *emit.Program, edit func(*engine.SimState)) []byte {
	t.Helper()
	st, err := snapshot.Decode(blob, p)
	if err != nil {
		t.Fatal(err)
	}
	edit(st)
	out, err := snapshot.Encode(st, p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// miscountedBlob rewrites a current blob of p to count one evaluable node
// more than the design has.
func miscountedBlob(t testing.TB, blob []byte, p *emit.Program) []byte {
	return editedBlob(t, blob, p, func(st *engine.SimState) { st.Stats.EvaluableNodes++ })
}

// unorderedBlob rewrites a current blob of p so its armed-supernode list is
// not ascending: the first two entries swapped, or a lone entry listed twice.
func unorderedBlob(t testing.TB, blob []byte, p *emit.Program) []byte {
	return editedBlob(t, blob, p, func(st *engine.SimState) {
		switch a := st.ActiveSups; len(a) {
		case 0:
			t.Fatal("the blob arms no supernode")
		case 1:
			st.ActiveSups = append(a, a[0])
		default:
			a[0], a[1] = a[1], a[0]
		}
	})
}

// v1Blob rewrites a current blob of p into format version 1: the version
// word, and no partition fingerprint after the supernode count.
func v1Blob(t testing.TB, blob []byte, p *emit.Program) []byte {
	t.Helper()
	at := partPrintAt(t, blob, p)
	v1 := append(append([]byte{}, blob[:at]...), blob[at+8:]...)
	binary.LittleEndian.PutUint32(v1[8:], 1)
	return v1
}

// fullImageBlob rewrites a current blob of p into the state layout of
// format version 2 — the state section is the whole one-worker image, the
// persistent words then the zeroed next and temporary regions — stamped
// with the given version.
func fullImageBlob(t testing.TB, blob []byte, p *emit.Program, version uint32) []byte {
	t.Helper()
	if p.TempWords == 0 {
		t.Fatal("the design has no temporaries: a full image would equal the persistent words")
	}
	const stateAt = 8 + 4 + 32 + 8 // header; the state section's word count follows
	end := stateAt + 8 + 8*p.StateWords
	full := append(append(append([]byte{}, blob[:end]...), make([]byte, 8*(p.NumWords-p.StateWords))...), blob[end:]...)
	binary.LittleEndian.PutUint64(full[stateAt:], uint64(p.NumWords))
	binary.LittleEndian.PutUint32(full[8:], version)
	return full
}

// TestSnapshotFromOtherProgramRefused: a release that changes what the
// compile pipeline emits changes every design hash, so a blob saved before it
// — here a good blob whose header carries another hash — must be refused with
// the compatibility error and leave the session it was offered to untouched.
func TestSnapshotFromOtherProgramRefused(t *testing.T) {
	g := loadDesign(t, "fifo.fir")
	for _, c := range matrixCells() {
		if c.save.Threads != c.resume.Threads {
			continue // the same configurations again
		}
		cfg := c.save
		sys, err := core.Build(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ins := inputsOf(sys.Graph)
		for c := 0; c < 40; c++ {
			drive(sys.Sim, ins, c)
			sys.Sim.Step()
		}
		foreign, err := snapshot.Save(sys.Sim)
		if err != nil {
			t.Fatal(err)
		}
		foreign[12+31] ^= 0x01 // last byte of the header's design hash
		for c := 40; c < 55; c++ {
			drive(sys.Sim, ins, c)
			sys.Sim.Step()
		}
		before, err := snapshot.Save(sys.Sim)
		if err != nil {
			t.Fatal(err)
		}
		err = snapshot.Restore(sys.Sim, foreign)
		if err == nil || !strings.Contains(err.Error(), "different design or optimization level") {
			t.Fatalf("%s: restore of another program's snapshot: %v", c.name, err)
		}
		after, err := snapshot.Save(sys.Sim)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) || sys.Sim.Stats().Cycles != 55 {
			t.Fatalf("%s: refused restore changed the session (cycle %d)", c.name, sys.Sim.Stats().Cycles)
		}
		sys.Close()
	}
}

// TestEncodeDeterminism pins that the same state always serializes to the
// same bytes (the service dedupes and content-addresses snapshots on this).
func TestEncodeDeterminism(t *testing.T) {
	g := loadDesign(t, "lfsr.fir")
	sys, err := core.Build(g, core.GSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ins := inputsOf(sys.Graph)
	for c := 0; c < 9; c++ {
		drive(sys.Sim, ins, c)
		sys.Sim.Step()
	}
	a, err := snapshot.Save(sys.Sim)
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshot.Save(sys.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two saves of the same state differ")
	}
	h, err := snapshot.ReadHeader(a)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cycles != 9 {
		t.Fatalf("header cycles = %d, want 9", h.Cycles)
	}
	if h.DesignHash != sys.Prog.DesignHash() {
		t.Fatal("header design hash does not match program")
	}
}

// TestCLISnapshotFormat pins the on-disk artifact: what cmd/gsim -save wrote
// in the smoke example stays readable (guards accidental format drift without
// a version bump). Generated and checked in-process to avoid committing
// binary fixtures.
func TestCLISnapshotFormat(t *testing.T) {
	g := loadDesign(t, "counter.fir")
	sys, err := core.Build(g, core.GSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	blob, err := snapshot.Save(sys.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob[:8]) != snapshot.Magic {
		t.Fatalf("blob does not start with magic: %q", blob[:8])
	}
	f, err := os.CreateTemp(t.TempDir(), "*.snap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(blob); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Restore(sys.Sim, data); err != nil {
		t.Fatal(err)
	}
}

// TestDesignHashDeterminism pins build determinism on a design large enough
// for every optimization pass to fire with cost ties: rebuilding the same
// graph must reproduce the identical program hash, or snapshots could not
// travel between builds (this caught extraction ordering leaking
// map-iteration order into node numbering). The design is normalized to one
// operation per node, the form whose extraction candidates tie in cost.
func TestDesignHashDeterminism(t *testing.T) {
	d := harness.Synthetic(gen.StuCoreLike())
	g, _, err := d.Build(harness.WorkloadCoreMark)
	if err != nil {
		t.Fatal(err)
	}
	passes.Normalize(g)
	var want string
	for i := 0; i < 3; i++ {
		sys, err := core.Build(g, core.GSIM())
		if err != nil {
			t.Fatal(err)
		}
		got := sys.Prog.DesignHashString()
		sys.Close()
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("rebuild %d produced hash %s, first build %s", i, got, want)
		}
	}
	// Regenerating the design from its profile must also agree: snapshots
	// of synthetic designs travel across processes this way.
	g2, _, err := d.Build(harness.WorkloadCoreMark)
	if err != nil {
		t.Fatal(err)
	}
	passes.Normalize(g2)
	sys, err := core.Build(g2, core.GSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got := sys.Prog.DesignHashString(); got != want {
		t.Fatalf("regenerated design hashed %s, want %s", got, want)
	}
}
