package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/ir"
)

// testProgram compiles a small design with the value shapes the writer has
// to format: 1-bit, narrow, exactly-64-bit, and 2-word signals, plus a
// register.
func testProgram(t *testing.T) *emit.Program {
	t.Helper()
	b := ir.NewBuilder("tracetest")
	in := b.Input("in", 96)
	r := b.Reg("r", 64)
	b.SetNext(r, b.Bits(b.R(in), 63, 0))
	b.MarkOutput(b.Comb("bit", b.OrR(b.R(in))))
	b.MarkOutput(b.Comb("narrow", b.Bits(b.R(in), 8, 0)))
	b.MarkOutput(b.Comb("wide", b.Not(b.R(in))))
	g := b.G
	if err := g.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, err := emit.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// feed drives n pseudo-random snapshots through v over a scratch state image
// shaped like the program's, mutating the traced slots each cycle (holding
// some cycles steady so the change-suppression path runs too).
func feed(t *testing.T, v *VCD, p *emit.Program, n int, seed int64) {
	t.Helper()
	st := make([]uint64, p.NumWords)
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < n; c++ {
		if c%5 != 4 { // every fifth cycle: no change at all
			for _, node := range p.Graph.Nodes {
				if node == nil || p.WordsOf[node.ID] == 0 {
					continue
				}
				off := p.Off[node.ID]
				for w := int32(0); w < p.WordsOf[node.ID]; w++ {
					st[off+w] = rng.Uint64()
				}
			}
		}
		v.Snapshot(st)
	}
}

// TestAsyncMatchesSync pins the pipeline's byte stream against the
// synchronous writer over the same snapshot sequence, across ring depths —
// determinism regardless of scheduling is the contract.
func TestAsyncMatchesSync(t *testing.T) {
	p := testProgram(t)
	var want bytes.Buffer
	sv, err := NewVCD(&want, p, nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, sv, p, 200, 7)
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("sync writer produced no output")
	}
	for _, ring := range []int{1, 2, DefaultRing, 64} {
		var got bytes.Buffer
		av, err := NewVCD(&got, p, nil, Options{Ring: ring})
		if err != nil {
			t.Fatal(err)
		}
		feed(t, av, p, 200, 7)
		if err := av.Close(); err != nil {
			t.Fatalf("ring %d: %v", ring, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("ring %d: async output diverges from sync (%d vs %d bytes)",
				ring, got.Len(), want.Len())
		}
	}
}

// slowWriter delays every write — a saturated disk. With a tiny ring the
// coordinator must block on backpressure, not drop or reorder snapshots.
type slowWriter struct {
	buf   bytes.Buffer
	delay time.Duration
}

func (w *slowWriter) Write(b []byte) (int, error) {
	time.Sleep(w.delay)
	return w.buf.Write(b)
}

func TestBackpressureSlowWriter(t *testing.T) {
	p := testProgram(t)
	var want bytes.Buffer
	sv, err := NewVCD(&want, p, nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, sv, p, 60, 11)
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}

	slow := &slowWriter{delay: 2 * time.Millisecond}
	av, err := NewVCD(slow, p, nil, Options{Ring: 1})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, av, p, 60, 11)
	if err := av.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slow.buf.Bytes(), want.Bytes()) {
		t.Fatalf("backpressured output diverges (%d vs %d bytes)", slow.buf.Len(), want.Len())
	}
}

// failWriter accepts a budget of bytes, then fails every write — a full
// disk mid-run.
type failWriter struct {
	budget int
	err    error
}

func (w *failWriter) Write(b []byte) (int, error) {
	if w.budget <= 0 {
		return 0, w.err
	}
	w.budget -= len(b)
	return len(b), nil
}

// TestErrorPropagation: after the sink dies mid-run, the first error surfaces
// on Err, Snapshot keeps draining without blocking (ring 1: a stalled writer
// would deadlock the second post-error snapshot), and Close returns the
// error — every call.
func TestErrorPropagation(t *testing.T) {
	p := testProgram(t)
	sinkErr := errors.New("disk full")
	fw := &failWriter{budget: 600, err: sinkErr}
	v, err := NewVCD(fw, p, nil, Options{Ring: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		feed(t, v, p, 500, 23)
	}()
	select {
	case err := <-v.Err():
		if !errors.Is(err, sinkErr) {
			t.Fatalf("Err delivered %v, want %v", err, sinkErr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no error surfaced on Err within 10s")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Snapshot blocked after sink error (drain mode broken)")
	}
	for i := 0; i < 2; i++ {
		if err := v.Close(); !errors.Is(err, sinkErr) {
			t.Fatalf("Close #%d = %v, want %v", i+1, err, sinkErr)
		}
	}
}

// TestHeaderError: a sink that is dead from the start fails construction.
func TestHeaderError(t *testing.T) {
	p := testProgram(t)
	fw := &failWriter{budget: 0, err: errors.New("dead sink")}
	if _, err := NewVCD(fw, p, nil, Options{}); err == nil {
		t.Fatal("NewVCD succeeded on a dead sink")
	}
}

// TestCloseIdempotent: Close drains once and keeps returning the same result.
func TestCloseIdempotent(t *testing.T) {
	p := testProgram(t)
	var buf bytes.Buffer
	v, err := NewVCD(&buf, p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, v, p, 10, 3)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatalf("second Close wrote %d more bytes", buf.Len()-n)
	}
}

// TestSelectNodesDefault: nil node list selects inputs, registers, and
// outputs, name-sorted — the contract the golden waveforms depend on.
func TestSelectNodesDefault(t *testing.T) {
	p := testProgram(t)
	nodes := SelectNodes(p.Graph)
	if len(nodes) == 0 {
		t.Fatal("no nodes selected")
	}
	for i, n := range nodes {
		if !(n.Kind == ir.KindInput || n.Kind == ir.KindReg || n.IsOutput) {
			t.Fatalf("node %s (kind %v) selected but not traceable-by-default", n.Name, n.Kind)
		}
		if i > 0 && nodes[i-1].Name >= n.Name {
			t.Fatalf("selection not name-sorted at %d: %s >= %s", i, nodes[i-1].Name, n.Name)
		}
	}
}

// TestEmitFormats spot-checks the value formatting rules against hand-built
// expectations: width-1 digits, leading-zero suppression, all-zero values.
func TestEmitFormats(t *testing.T) {
	b := ir.NewBuilder("fmt")
	in := b.Input("a", 8)
	b.MarkOutput(b.Comb("b1", b.OrR(b.R(in))))
	g := b.G
	if err := g.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, err := emit.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	v, err := NewVCD(&buf, p, nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	st := make([]uint64, p.NumWords)
	a := p.Off[g.FindNode("a").ID]
	b1 := p.Off[g.FindNode("b1").ID]
	st[a], st[b1] = 0, 0
	v.Snapshot(st)
	st[a], st[b1] = 0b101, 1
	v.Snapshot(st)
	v.Snapshot(st) // no change: no timestamp
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"#0\nb0 !\n0\"\n", "#1\nb101 !\n1\"\n"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if bytes.Contains(buf.Bytes(), []byte("#2")) {
		t.Fatalf("change-free cycle emitted a timestamp:\n%s", out)
	}
}

var _ io.Writer = (*slowWriter)(nil)

// TestResumeSplitsStream pins the Resume option: splitting a run at any
// cycle K and continuing with Options.Resume{Time: K, State: <image at K>}
// produces a second stream that, appended to the first K cycles' bytes,
// equals the uninterrupted stream exactly — the property the snapshot
// round-trip suite relies on, isolated from the engines.
func TestResumeSplitsStream(t *testing.T) {
	p := testProgram(t)
	const cycles = 30

	// Deterministic state sequence, captured so both runs replay it exactly.
	states := make([][]uint64, cycles)
	{
		st := make([]uint64, p.NumWords)
		rng := rand.New(rand.NewSource(77))
		for c := 0; c < cycles; c++ {
			if c%5 != 4 {
				for _, node := range p.Graph.Nodes {
					if node == nil || p.WordsOf[node.ID] == 0 {
						continue
					}
					off := p.Off[node.ID]
					for w := int32(0); w < p.WordsOf[node.ID]; w++ {
						st[off+w] = rng.Uint64()
					}
				}
			}
			states[c] = append([]uint64(nil), st...)
		}
	}
	run := func(v *VCD, from, to int) {
		for c := from; c < to; c++ {
			v.Snapshot(states[c])
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var gold bytes.Buffer
	vg, err := NewVCD(&gold, p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run(vg, 0, cycles)

	for _, K := range []int{1, 7, 15, cycles - 1} {
		for _, sync := range []bool{false, true} {
			var part1, part2 bytes.Buffer
			v1, err := NewVCD(&part1, p, nil, Options{Sync: sync})
			if err != nil {
				t.Fatal(err)
			}
			run(v1, 0, K)
			v2, err := NewVCD(&part2, p, nil, Options{Sync: sync,
				Resume: &Resume{Time: uint64(K), State: states[K-1]}})
			if err != nil {
				t.Fatal(err)
			}
			run(v2, K, cycles)
			joined := append(append([]byte{}, part1.Bytes()...), part2.Bytes()...)
			if !bytes.Equal(gold.Bytes(), joined) {
				t.Fatalf("K=%d sync=%v: resumed stream diverges (%d vs %d bytes)", K, sync, gold.Len(), len(joined))
			}
		}
	}
}

// TestVCDDump drives the writer from a live engine (a counter, traced through
// AttachTracer) and checks the stream's shape: header, timestamps, the final
// counter value, and change-only dumping of a held input.
func TestVCDDump(t *testing.T) {
	b := ir.NewBuilder("cnt")
	en := b.Input("en", 1)
	r := b.Reg("c", 8)
	b.SetNext(r, b.Mux(b.R(en), b.AddW(b.R(r), b.C(8, 1), 8), b.R(r)))
	b.Output("o", b.R(r))
	if err := b.G.SortTopological(); err != nil {
		t.Fatal(err)
	}
	p, err := emit.Compile(b.G)
	if err != nil {
		t.Fatal(err)
	}
	sim := engine.NewFullCycle(p, 1, engine.EvalKernel)
	var sb strings.Builder
	v, err := NewVCD(&sb, p, nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	sim.AttachTracer(v)
	sim.Poke(en.ID, bitvec.FromUint64(1, 1))
	engine.StepN(sim, 5)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{
		"$timescale", "$var wire 8", "$var wire 1", "$enddefinitions",
		"#0", "#4", "b101 ", // counter value 5 at the final sample
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("VCD missing %q:\n%s", frag, out)
		}
	}
	// Unchanged signals must not be re-emitted every cycle: `en` appears in
	// the initial dump only.
	enID := ""
	for i, n := range SelectNodes(p.Graph) {
		if n.Name == "en" {
			enID = v.fields[i].id
		}
	}
	if n := strings.Count(out, "1"+enID+"\n"); n != 1 {
		t.Fatalf("en emitted %d times, want 1 (change-only dumping)", n)
	}
}

func TestVCDIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate VCD id %q at %d", id, i)
		}
		seen[id] = true
	}
}
