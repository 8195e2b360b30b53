package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/ir"
	"gsim/internal/trace"
)

// updateGolden regenerates the committed reference waveforms:
//
//	go test ./internal/core -run TestGoldenVCD -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.vcd reference waveforms")

const goldenCycles = 50

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// evalConfig is the golden reference configuration (GSIM preset) under the
// given evaluation mode.
func evalConfig(mode engine.EvalMode) Config {
	cfg := GSIM()
	cfg.Eval = mode
	return cfg
}

// TestGoldenVCD pins the committed reference waveforms for every testdata
// design, byte for byte, under all three evaluation modes through the
// synchronous tracer — so superinstruction fusion, width classes, and chunk
// batching can never silently change trace output, and neither can a VCD
// writer refactor.
func TestGoldenVCD(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.fir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata designs found: %v", err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".fir")
		g, err := firrtl.LoadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		golden := filepath.Join("../../testdata/golden", name+".vcd")
		got := goldenVCD(t, g, name, evalConfig(engine.EvalKernel), 0, true)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", golden, len(got))
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: missing golden waveform (run with -update-golden): %v", name, err)
		}
		for _, mode := range []engine.EvalMode{engine.EvalKernel, engine.EvalKernelNoFuse, engine.EvalInterp} {
			out := got
			if mode != engine.EvalKernel {
				out = goldenVCD(t, g, name, evalConfig(mode), 0, true)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("%s/%s: VCD diverges from golden (%d vs %d bytes): %s",
					name, mode, len(out), len(want), firstDiff(out, want))
			}
		}
	}
}

// goldenVCD renders the design's waveform through the tracer
// (internal/trace) attached to the engine, under a fixed stimulus protocol:
// reset held for the first two cycles, then every input driven from a
// deterministic per-design stream. The engine samples at the end of every
// Step; with sync false the writer goroutine formats behind it. Everything
// here — node selection order, stimulus, cycle count — is part of the
// golden-file contract; change it only together with -update-golden.
func goldenVCD(t *testing.T, g *ir.Graph, name string, cfg Config, ring int, sync bool) []byte {
	t.Helper()
	sys, err := Build(g, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer sys.Close()
	var buf bytes.Buffer
	tr, err := trace.NewVCD(&buf, sys.Prog, nil, trace.Options{Ring: ring, Sync: sync})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sys.Sim.(interface{ AttachTracer(engine.Tracer) }).AttachTracer(tr)
	var inputs []*ir.Node
	for _, n := range sys.Graph.Nodes {
		if n.Kind == ir.KindInput {
			inputs = append(inputs, n)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	for c := 0; c < goldenCycles; c++ {
		for _, in := range inputs {
			v := bitvec.FromUint64(in.Width, rng.Uint64())
			if in.Name == "reset" {
				v = bitvec.FromUint64(1, b2u(c < 2))
			}
			sys.Sim.Poke(in.ID, v)
		}
		sys.Sim.Step()
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf.Bytes()
}

// TestGoldenVCDAsync pins the committed reference waveforms through the
// asynchronous pipeline for every engine × eval mode × thread count (plus
// the tracer's own sync mode), byte for byte. Same optimization pipeline as
// the goldens (GSIM passes + enhanced partition); only the execution engine
// and tracer vary — so waveform capture moving off the coordinator can never
// change what lands in the file.
func TestGoldenVCDAsync(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.fir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata designs found: %v", err)
	}
	type cell struct {
		label string
		cfg   func() Config
		ring  int
		sync  bool
	}
	var cells []cell
	engines := []struct {
		label  string
		engine EngineKind
		thr    int
	}{
		{"fullcycle-1T", EngineFullCycle, 1},
		{"fullcycle-2T", EngineFullCycle, 2},
		{"fullcycle-4T", EngineFullCycle, 4},
		{"activity-1T", EngineActivity, 1},
	}
	for _, e := range engines {
		for _, m := range []engine.EvalMode{engine.EvalKernel, engine.EvalKernelNoFuse, engine.EvalInterp} {
			e, m := e, m
			cells = append(cells, cell{
				label: fmt.Sprintf("%s/%s", e.label, m),
				cfg: func() Config {
					cfg := GSIM()
					cfg.Engine = e.engine
					cfg.Threads = e.thr
					cfg.Eval = m
					return cfg
				},
			})
		}
	}
	// Tracer-shape variants on the default engine: tiny ring (live
	// backpressure in the golden path) and the synchronous fallback.
	cells = append(cells,
		cell{label: "gsim/ring1", cfg: GSIM, ring: 1},
		cell{label: "gsim/sync", cfg: GSIM, sync: true},
	)
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".fir")
		g, err := firrtl.LoadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		want, err := os.ReadFile(filepath.Join("../../testdata/golden", name+".vcd"))
		if err != nil {
			t.Fatalf("%s: missing golden waveform (run TestGoldenVCD with -update-golden): %v", name, err)
		}
		for _, c := range cells {
			out := goldenVCD(t, g, name, c.cfg(), c.ring, c.sync)
			if !bytes.Equal(out, want) {
				t.Fatalf("%s/%s: async VCD diverges from golden (%d vs %d bytes): %s",
					name, c.label, len(out), len(want), firstDiff(out, want))
			}
		}
	}
}

// firstDiff locates the first byte where two streams diverge, with context.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 30
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first diff at byte %d: got ...%q want ...%q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("one stream is a prefix of the other (diff at byte %d)", n)
}
