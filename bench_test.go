// Package-level benchmarks: the kernel pipeline, the pass rule set, the
// observability tax and the service layers, each reporting its own metric
// (simulated kHz, ns per cycle, requests or sessions per second) via
// b.ReportMetric. The paper's tables and figures are cmd/gsim-bench's.
//
// Benchmarks use the two smaller designs by default so the suite completes
// in CI time.
package gsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/core"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/fleet"
	"gsim/internal/gen"
	"gsim/internal/harness"
	"gsim/internal/ir"
	"gsim/internal/obs"
	"gsim/internal/rv"
	"gsim/internal/server"
)

// benchDesigns: the real RV32 core plus the rocket-scale synthetic profile.
func benchDesigns() []harness.Design {
	return []harness.Design{
		harness.StuCore(),
		harness.Synthetic(gen.RocketLike()),
	}
}

// runSim measures one configuration under b, reporting simulated kHz.
func runSim(b *testing.B, d harness.Design, workload string, cfg core.Config) {
	b.Helper()
	sys, drive, err := harness.BuildSystem(d, workload, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	for c := 0; c < 20; c++ {
		drive(sys.Sim, c)
		sys.Sim.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive(sys.Sim, 20+i)
		sys.Sim.Step()
	}
	b.StopTimer()
	khz := float64(b.N) / b.Elapsed().Seconds() / 1000
	b.ReportMetric(khz, "simkHz")
	b.ReportMetric(sys.Sim.Stats().ActivityFactor(), "af")
}

// BenchmarkKernelVsInterp is the kernel pipeline's headline head-to-head:
// every testdata FIRRTL design plus the stucore (real RV32 core) and
// rocket-scale profiles, under the full-cycle (verilator) and
// essential-signal (gsim) presets, across all three evaluation modes —
// the fused kernel pipeline (superinstructions + width classes), the same
// bound chains with fusion off (kernel-nofuse), and the switch-dispatch
// interpreter — over the same compiled program, with random stimulus.
// ns/cycle is reported per sub-benchmark so the fusion win is measured, not
// asserted: compare the kernel and kernel-nofuse rows of one design/preset.
func BenchmarkKernelVsInterp(b *testing.B) {
	files, err := filepath.Glob("testdata/*.fir")
	if err != nil || len(files) == 0 {
		b.Fatalf("no testdata designs: %v", err)
	}
	type design struct {
		name  string
		graph *ir.Graph
	}
	var designs []design
	for _, f := range files {
		g, err := firrtl.LoadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		designs = append(designs, design{strings.TrimSuffix(filepath.Base(f), ".fir"), g})
	}
	for _, d := range []harness.Design{harness.StuCore(), harness.Synthetic(gen.RocketLike())} {
		g, _, err := d.Build(harness.WorkloadLinux)
		if err != nil {
			b.Fatal(err)
		}
		designs = append(designs, design{d.Name, g})
	}
	kernelModes := []engine.EvalMode{engine.EvalKernel, engine.EvalKernelNoFuse, engine.EvalInterp}
	for _, d := range designs {
		g := d.graph
		for _, preset := range []func() core.Config{core.Verilator, core.GSIM} {
			for _, mode := range kernelModes {
				cfg := preset()
				cfg.Eval = mode
				b.Run(fmt.Sprintf("%s/%s/%s", d.name, cfg.Name, mode), func(b *testing.B) {
					benchCycles(b, g, cfg)
				})
			}
		}
	}
}

// benchCycles builds g under cfg and times Step with random stimulus,
// reporting ns/cycle.
func benchCycles(b *testing.B, g *ir.Graph, cfg core.Config) {
	b.Helper()
	sys, err := core.Build(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	var inputs []*ir.Node
	for _, n := range sys.Graph.Nodes {
		if n.Kind == ir.KindInput {
			inputs = append(inputs, n)
		}
	}
	rng := rand.New(rand.NewSource(1))
	poke := func() {
		for _, in := range inputs {
			sys.Sim.Poke(in.ID, bitvec.FromUint64(in.Width, rng.Uint64()))
		}
	}
	for c := 0; c < 20; c++ {
		poke()
		sys.Sim.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		poke()
		sys.Sim.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
}

// BenchmarkSimplify measures what the generated algebraic rule set buys at
// runtime: the same design under the essential-signal preset with the rules
// enabled (the default) and disabled, same stimulus. The delta is the work
// the rewrites removed before the kernel compiler ever saw the graph.
func BenchmarkSimplify(b *testing.B) {
	for _, d := range benchDesigns() {
		for _, noalg := range []bool{false, true} {
			cfg := core.GSIM()
			if noalg {
				cfg.Name = "gsim-noalg"
				cfg.Opt.NoAlgebraic = true
			}
			b.Run(fmt.Sprintf("%s/%s", d.Name, cfg.Name), func(b *testing.B) {
				runSim(b, d, harness.WorkloadCoreMark, cfg)
			})
		}
	}
}

// muxChainFIR builds a FIRRTL design dominated by registered priority-mux
// cascades: each lane is one compare feeding a deep chain of muxes whose
// 1-bit selectors are shared bit-extracts, so the compiled chains are wall
// to wall mux-mux-mux triple-fusion windows.
func muxChainFIR(lanes, depth int) string {
	var sb strings.Builder
	sb.WriteString("circuit MuxChain :\n  module MuxChain :\n")
	sb.WriteString("    input clock : Clock\n    input reset : UInt<1>\n")
	sb.WriteString("    input sel : UInt<8>\n    input x : UInt<16>\n    input y : UInt<16>\n")
	for l := 0; l < lanes; l++ {
		fmt.Fprintf(&sb, "    output out%d : UInt<16>\n", l)
	}
	for d := 0; d < 8; d++ {
		fmt.Fprintf(&sb, "    node s%d = bits(sel, %d, %d)\n", d, d, d)
	}
	for l := 0; l < lanes; l++ {
		fmt.Fprintf(&sb, "    reg r%d : UInt<16>, clock with :\n      reset => (reset, UInt<16>(\"h0\"))\n", l)
		fmt.Fprintf(&sb, "    node c%d = lt(x, UInt<16>(%d))\n", l, 17+l*13)
		fmt.Fprintf(&sb, "    node m%d_0 = mux(c%d, x, y)\n", l, l)
		for d := 1; d < depth; d++ {
			fmt.Fprintf(&sb, "    node m%d_%d = mux(s%d, m%d_%d, r%d)\n", l, d, (l+d)%8, l, d-1, l)
		}
		fmt.Fprintf(&sb, "    r%d <= m%d_%d\n", l, l, depth-1)
		fmt.Fprintf(&sb, "    out%d <= r%d\n", l, l)
	}
	return sb.String()
}

// BenchmarkTripleFusion is the three-instruction superinstructions' own
// datapoint: the mux-cascade design above, fused kernel vs the same stream
// with fusion off. On this shape most of the fused kernels
// come from the triple rules, so the kernel/kernel-nofuse gap is dominated
// by the three-wide windows rather than the pair idioms.
func BenchmarkTripleFusion(b *testing.B) {
	g, err := firrtl.Load(muxChainFIR(16, 12))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []engine.EvalMode{engine.EvalKernel, engine.EvalKernelNoFuse} {
		cfg := core.GSIM()
		cfg.Eval = mode
		b.Run(mode.String(), func(b *testing.B) {
			benchCycles(b, g, cfg)
		})
	}
}

// BenchmarkMetricsOverhead pins the observability tax on the step hot loop:
// the same compiled design stepped bare and with an engine metrics bundle
// attached (stats deltas fold into process counters on the amortized flush
// schedule). The bench gate holds the instrumented row's regression bound,
// and the issue's acceptance bar is <2% between the two rows. The
// rocket-scale profile keeps each run long enough for the fixed-benchtime
// CI gate to resolve percent-level deltas.
func BenchmarkMetricsOverhead(b *testing.B) {
	d := harness.Synthetic(gen.RocketLike())
	g, _, err := d.Build(harness.WorkloadCoreMark)
	if err != nil {
		b.Fatal(err)
	}
	for _, instrumented := range []bool{false, true} {
		name := "bare"
		if instrumented {
			name = "instrumented"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := core.Build(g, core.GSIM())
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			if instrumented {
				em := engine.NewMetrics(obs.NewRegistry())
				a, ok := sys.Sim.(interface{ AttachObs(*engine.Metrics) })
				if !ok {
					b.Fatalf("%T does not support AttachObs", sys.Sim)
				}
				a.AttachObs(em)
			}
			for c := 0; c < 20; c++ {
				sys.Sim.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Sim.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
		})
	}
}

// BenchmarkInterpreter measures raw interpreter throughput (instructions per
// second) on the RV core — the substrate's own datapoint.
func BenchmarkInterpreter(b *testing.B) {
	prog, err := rv.Assemble(rv.CoreMarkLike)
	if err != nil {
		b.Fatal(err)
	}
	c, err := rv.BuildCore(prog, rv.DefaultCoreConfig())
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.Build(c.Graph, core.Verilator())
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Sim.Step()
	}
	b.StopTimer()
	st := sys.Sim.Stats()
	b.ReportMetric(float64(st.InstrsExecuted)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkServerSessions measures the simulation service: warm-cache
// session creation rate (the compiled-design cache makes a create a map hit
// plus one engine instantiation) and cache-hit step throughput with several
// concurrent sessions multiplexed over one shared compile. The stucore
// profile keeps the numbers on the same design family as the engine rows.
func BenchmarkServerSessions(b *testing.B) {
	d := harness.Synthetic(gen.StuCoreLike())
	g, _, err := d.Build(harness.WorkloadCoreMark)
	if err != nil {
		b.Fatal(err)
	}
	key := d.Name + "/bench"
	spec := server.SessionSpec{}

	b.Run("create", func(b *testing.B) {
		mgr := server.NewManager()
		defer mgr.Drain(context.Background())
		// Pay the one cold compile outside the timer; every timed create
		// shares it.
		s, err := mgr.CreateSessionGraph(g, key, spec)
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := mgr.CreateSessionGraph(g, key, spec)
			if err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
	})

	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("step/%dsessions", n), func(b *testing.B) {
			mgr := server.NewManager()
			defer mgr.Drain(context.Background())
			sessions := make([]*server.Session, n)
			for i := range sessions {
				s, err := mgr.CreateSessionGraph(g, key, spec)
				if err != nil {
					b.Fatal(err)
				}
				sessions[i] = s
			}
			per := b.N/n + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, s := range sessions {
				wg.Add(1)
				go func(s *server.Session) {
					defer wg.Done()
					for c := 0; c < per; c += 10 {
						if _, err := s.Apply(context.Background(), []server.Op{{Op: "step", N: 10}}); err != nil {
							b.Error(err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(n*per)/b.Elapsed().Seconds()/1000, "simkHz")
		})
	}
}

// BenchmarkGangThroughput measures multi-lane sessions through the service:
// one cache-hit session of the default engine at 1/2/4/8 lanes stepping
// through the batched-op path, reporting aggregate lane-cycles per second.
// Every lane is an ordinary engine over the design's shared plan, so the
// rows scale with the lane count on one core only as far as the per-op
// service cost amortizes.
func BenchmarkGangThroughput(b *testing.B) {
	d := harness.Synthetic(gen.StuCoreLike())
	g, _, err := d.Build(harness.WorkloadCoreMark)
	if err != nil {
		b.Fatal(err)
	}
	key := d.Name + "/gangbench"
	spec := server.SessionSpec{}
	mgr := server.NewManager()
	defer mgr.Drain(context.Background())
	// Pay the one cold compile up front; every lane count shares it.
	warm, err := mgr.CreateSessionGraph(g, key, spec)
	if err != nil {
		b.Fatal(err)
	}
	warm.Close()

	for _, lanes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dlanes", lanes), func(b *testing.B) {
			gspec := spec
			gspec.Lanes = lanes
			s, err := mgr.CreateSessionGraph(g, key, gspec)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if !s.CacheHit {
				b.Fatal("gang session missed the warm compile cache")
			}
			const batch = 64
			b.ResetTimer()
			steps := 0
			for c := 0; c < b.N; c += batch {
				if _, err := s.Apply(context.Background(), []server.Op{{Op: "step", N: batch}}); err != nil {
					b.Fatal(err)
				}
				steps += batch
			}
			b.StopTimer()
			b.ReportMetric(float64(steps*lanes)/b.Elapsed().Seconds()/1000, "simkHz")
		})
	}
}

// BenchmarkRouterHop measures the fleet router's proxy overhead: the same
// single-step op batch issued over HTTP directly against a replica versus
// through a gsim-router in front of it. The delta is the cost of one hop —
// session-table lookup, migration-gate acquire, and the second HTTP leg.
func BenchmarkRouterHop(b *testing.B) {
	src, err := os.ReadFile("testdata/counter.fir")
	if err != nil {
		b.Fatal(err)
	}
	stepOps := server.OpsRequest{Ops: []server.Op{{Op: "step", N: 1}}}

	run := func(b *testing.B, base, sid string) {
		url := base + "/v1/sessions/" + sid + "/ops"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if status := benchPostJSON(b, url, stepOps, nil); status != 200 {
				b.Fatalf("ops: status %d", status)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	}

	b.Run("direct", func(b *testing.B) {
		mgr := server.NewManager()
		defer mgr.Drain(context.Background())
		ts := httptest.NewServer(mgr.Handler())
		defer ts.Close()
		var created server.CreateResponse
		if status := benchPostJSON(b, ts.URL+"/v1/sessions", server.CreateRequest{FIRRTL: string(src)}, &created); status != 201 {
			b.Fatalf("create: status %d", status)
		}
		run(b, ts.URL, created.Session)
	})

	b.Run("routed", func(b *testing.B) {
		mgr := server.NewManager()
		defer mgr.Drain(context.Background())
		ts := httptest.NewServer(mgr.Handler())
		defer ts.Close()
		rt := fleet.NewRouter(fleet.Config{})
		defer rt.Close()
		rt.Register("r1", ts.URL)
		front := httptest.NewServer(rt.Handler())
		defer front.Close()
		var created server.CreateResponse
		if status := benchPostJSON(b, front.URL+"/v1/sessions", server.CreateRequest{FIRRTL: string(src)}, &created); status != 201 {
			b.Fatalf("create: status %d", status)
		}
		run(b, front.URL, created.Session)
	})
}

// BenchmarkMigration measures live-migration throughput in sessions/s: a
// fleet of two replicas, K sessions homed on one, DrainReplica moves them
// all (snapshot, reroute, recreate, restore, retarget) to the other. Between
// timed iterations the drained slot is recycled with a fresh replica process
// so the next drain has somewhere to go.
func BenchmarkMigration(b *testing.B) {
	src, err := os.ReadFile("testdata/counter.fir")
	if err != nil {
		b.Fatal(err)
	}
	const perDrain = 8

	rt := fleet.NewRouter(fleet.Config{})
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	mgrs := map[string]*server.Manager{}
	servers := map[string]*httptest.Server{}
	newReplica := func(name string) {
		if old, ok := servers[name]; ok {
			_ = mgrs[name].Drain(context.Background())
			old.Close()
		}
		mgr := server.NewManager()
		mgrs[name] = mgr
		servers[name] = httptest.NewServer(mgr.Handler())
		rt.Register(name, servers[name].URL)
	}
	newReplica("a")
	newReplica("b")
	defer func() {
		for name, ts := range servers {
			_ = mgrs[name].Drain(context.Background())
			ts.Close()
		}
	}()

	// All sessions share one design, so affinity homes them together; track
	// that home as it bounces between the two slots.
	var created server.CreateResponse
	if status := benchPostJSON(b, front.URL+"/v1/sessions", server.CreateRequest{FIRRTL: string(src)}, &created); status != 201 {
		b.Fatalf("create: status %d", status)
	}
	for i := 1; i < perDrain; i++ {
		if status := benchPostJSON(b, front.URL+"/v1/sessions", server.CreateRequest{FIRRTL: string(src)}, nil); status != 201 {
			b.Fatalf("create %d: status %d", i, status)
		}
	}
	home := "a"
	if mgrs["b"].SessionCount() > 0 {
		home = "b"
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		migrated, failed, err := rt.DrainReplica(home)
		if err != nil || migrated != perDrain || len(failed) != 0 {
			b.Fatalf("drain %s: migrated=%d failed=%v err=%v", home, migrated, failed, err)
		}
		b.StopTimer()
		newReplica(home) // recycle the drained slot outside the timer
		if home == "a" {
			home = "b"
		} else {
			home = "a"
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*perDrain)/b.Elapsed().Seconds(), "sessions/s")
}

// benchPostJSON is a minimal JSON POST helper for the HTTP benches.
func benchPostJSON(b *testing.B, url string, body, out any) int {
	b.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			b.Fatal(err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}
