package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"runtime"
	"time"

	"gsim/internal/bitvec"
	"gsim/internal/core"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/gen"
	"gsim/internal/ir"
	"gsim/internal/snapshot"
)

// engineRun drives one simulator with pre-generated stimulus, one op
// (opCycles x {poke, Step}) at a time, and folds the output port into the
// digest every peekEvery cycles.
type engineRun struct {
	sim           engine.Sim
	stimID, outID int
	digest        hash.Hash
	cycles, ops   int
}

// ports finds the stimulus input and the checksum output of a compiled
// synthetic profile.
func ports(g *ir.Graph) (stimID, outID int, err error) {
	stim, out := g.FindNode(stimPort), g.FindNode(outPort)
	if stim == nil || out == nil {
		return 0, 0, fmt.Errorf("design lacks port %s or %s", stimPort, outPort)
	}
	return stim.ID, out.ID, nil
}

func newEngineRun(sim engine.Sim, g *ir.Graph) (*engineRun, error) {
	stimID, outID, err := ports(g)
	return &engineRun{sim: sim, stimID: stimID, outID: outID, digest: sha256.New()}, err
}

// segment steps len(vals) cycles and returns the wall time of the whole
// segment; lat, when non-nil, receives each op's latency in seconds. rec is
// nil on untraced runs.
func (e *engineRun) segment(vals []bitvec.BV, lat []float64, rec *spanRecorder) time.Duration {
	start := time.Now()
	for op := 0; op*opCycles < len(vals); op++ {
		root := rec.begin("op", e.ops, -1)
		t0 := time.Now()
		for _, v := range vals[op*opCycles : (op+1)*opCycles] {
			e.sim.Poke(e.stimID, v)
			sp := rec.begin("engine.step", e.ops, root)
			e.sim.Step()
			rec.end(sp)
		}
		if lat != nil {
			lat[op] = time.Since(t0).Seconds()
		}
		rec.end(root)
		e.ops++
		e.cycles += opCycles
		if e.cycles%peekEvery == 0 {
			binary.Write(e.digest, binary.LittleEndian, e.sim.Peek(e.outID).W)
		}
	}
	return time.Since(start)
}

// samples collects one run's raw measurements; report turns them into the
// end-to-end metrics, every timed one a fast decile at the nominal host speed.
type samples struct {
	setupS []float64   // one per cold set-up
	khz    []float64   // one per measured segment
	lats   [][]float64 // op latencies in seconds, per measured segment
	spinS  []float64   // the reference loop, once before every measured segment
}

// report scales every time by spinNominal over the run's own reading of the
// reference loop (its fast decile, like the metrics'), so a metric says what
// the program would do on a host that runs the loop in spinNominal. This
// host's speed moves by a tenth and more for minutes at a time, for every
// workload and the loop alike; unscaled, that movement alone spread each
// timed metric by 6-11 % over 16 runs of unchanged code, scaled by 1-3 %
// (README.md, "Bounds"). The unscaled values go to the detail line.
func (m *samples) report(r *report) {
	setup, khz, p50 := fastTime(m.setupS), fastRate(m.khz), segmentPercentile(m.lats, 50)*1000
	r.HostSpeed = spinNominal / fastTime(m.spinS)
	r.Raw = map[string]float64{"setup_s": setup, "sim_khz": khz, "op_p50_ms": p50}
	r.set("setup_s", setup*r.HostSpeed)
	r.set("sim_khz", khz/r.HostSpeed)
	r.set("op_p50_ms", p50*r.HostSpeed)
	r.set("live_heap_mb", liveHeapMiB())
}

// runEngineWorkload runs sc.rounds identical rounds. A round is a cold
// set-up (text -> graph -> compiled design -> engine -> warm-up) and the
// measured segments on that engine. Every round replays the same stimulus
// from reset, so the segments are the same work sampled across the whole run
// (the host's speed wanders over tens of seconds) and every round must end in
// the same digest.
func runEngineWorkload(w workload, sc scale, seed int64, r *report) error {
	prof, cfg, ld := sc.engineDesign, w.cfg(), w.load(sc)
	segCycles, warmCycles := ld.size, ld.warm(opCycles)
	text, err := designText(prof)
	if err != nil {
		return err
	}
	buf := newStimBuffer(max(segCycles, warmCycles))
	defer pinThread()()
	var m samples
	var design *core.CompiledDesign
	var run *engineRun
	for round := 0; round < sc.rounds; round++ {
		if run != nil {
			run.sim.Close()
		}
		stim := newStimulus(w.stim, prof, seed)
		warm := buf.fill(stim, warmCycles)
		runtime.GC()
		t0 := time.Now()
		graph, err := firrtl.Load(text)
		if err != nil {
			return err
		}
		if design, err = core.CompileDesign(graph, cfg); err != nil {
			return err
		}
		sim, err := design.NewSim(cfg)
		if err != nil {
			return err
		}
		if run, err = newEngineRun(sim, design.Graph); err != nil {
			return err
		}
		run.segment(warm, nil, nil)
		m.setupS = append(m.setupS, time.Since(t0).Seconds())

		for s := 0; s < ld.segs; s++ {
			vals := buf.fill(stim, segCycles)
			lat := make([]float64, segCycles/opCycles)
			runtime.GC()
			m.spinS = append(m.spinS, spin().Seconds())
			wall := run.segment(vals, lat, nil)
			m.khz = append(m.khz, float64(segCycles)/wall.Seconds()/1000)
			m.lats = append(m.lats, lat)
		}
		// The correctness gate, outside every metric. Restoring a saved image
		// must leave the state as it was.
		blob, err := snapshot.Save(run.sim)
		if err != nil {
			return err
		}
		if err := snapshot.Restore(run.sim, blob); err != nil {
			return err
		}
		again, err := snapshot.Save(run.sim)
		if err != nil {
			return err
		}
		if !bytes.Equal(blob, again) {
			r.problem("round %d: a snapshot round trip changed the state", round)
		}

		// The round's digest is every sampled output, the final stats and the
		// final snapshot.
		st := *run.sim.Stats()
		binary.Write(run.digest, binary.LittleEndian, st)
		run.digest.Write(blob)
		digest := fmt.Sprintf("%x", run.digest.Sum(nil))
		if round == 0 {
			r.Digest = digest
			r.Counts["cycles_per_round"] = st.Cycles
			r.Counts["node_evals_per_round"] = st.NodeEvals
			r.Counts["instrs_per_round"] = st.InstrsExecuted
			r.Counts["snapshot_bytes"] = uint64(len(blob))
		} else if digest != r.Digest {
			r.problem("round %d ended in digest %s, round 0 in %s", round, digest, r.Digest)
		}
		r.attempted += run.ops
	}
	defer run.sim.Close()
	m.report(r)
	if err := lockstepTwin(text, design, cfg, prof, w.stim, seed, sc.twinCycles); err != nil {
		r.problem("%v", err)
	}
	return nil
}

// lockstepTwin steps a fresh engine of the configuration under test beside
// an independent build of the same design — full-cycle schedule, reference
// interpreter, no activity logic, no kernels — and compares the output port
// after every cycle.
func lockstepTwin(text string, d *core.CompiledDesign, cfg core.Config, p gen.Profile, kind stimKind, seed int64, cycles int) error {
	dut, err := d.NewSim(cfg)
	if err != nil {
		return err
	}
	defer dut.Close()
	g, err := firrtl.Load(text)
	if err != nil {
		return err
	}
	refCfg := core.Verilator()
	refCfg.Eval = engine.EvalInterp
	ref, err := core.Build(g, refCfg)
	if err != nil {
		return fmt.Errorf("build interpreter twin: %w", err)
	}
	defer ref.Close()
	a, err := newEngineRun(dut, d.Graph)
	if err != nil {
		return err
	}
	b, err := newEngineRun(ref.Sim, ref.Graph)
	if err != nil {
		return err
	}
	stim := newStimulus(kind, p, seed)
	for c := 0; c < cycles; c++ {
		lo, hi := stim.next()
		v := bitvec.BV{Width: 128, W: []uint64{lo, hi}}
		a.sim.Poke(a.stimID, v)
		b.sim.Poke(b.stimID, v)
		a.sim.Step()
		b.sim.Step()
		if x, y := a.sim.Peek(a.outID), b.sim.Peek(b.outID); !x.Equal(y) {
			return fmt.Errorf("cycle %d: %s engine reads %s, interpreter twin reads %s", c, cfg.Name, x, y)
		}
	}
	return nil
}

// liveHeapMiB is the heap still reachable after two collections (the second
// frees what the first one's finalizers released).
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// spin is the host-speed reference: a fixed loop of dependent integer
// operations that touches no memory, so its duration depends only on how fast
// the host runs this thread. samples.report scales the timed metrics by it;
// a workload whose readings before and after differ by more than a tenth ran
// while the host's speed was changing.
func spin() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return time.Since(t0)
}

// spinNominal is the speed the end-to-end metrics are reported at: spin took
// 8.0 ms in this host's faster hours while the benchmark was built (2-vCPU
// Firecracker guest, Xeon 2.1 GHz, go1.24.0).
const spinNominal = 8e-3 // seconds

var spinSink uint64
