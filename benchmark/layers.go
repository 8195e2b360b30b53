package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gsim/internal/core"
	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/ir"
	"gsim/internal/obs"
	"gsim/internal/partition"
	"gsim/internal/passes"
	"gsim/internal/server"
	"gsim/internal/snapshot"
	"gsim/internal/trace"
)

// runLayers is the traced run: it measures every module from outside, by
// timing calls into its public functions, with one span per call.
//
//	A. the compile path of the workload's design, one layer at a time;
//	B. the engine under the workload's configuration and stimulus: plain,
//	   with spans, with a VCD tracer, with a metrics bundle;
//	C. the service ledger on the serve-sessions design: the same op stream
//	   through the bare engine, Session.Apply, HTTP, and routed HTTP, so each
//	   layer's tax is a subtraction between adjacent rows.
//
// End-to-end metrics never come from this run.
func runLayers(w workload, sc scale, seed int64, r *report, outDir string, log io.Writer) error {
	rec := newSpanRecorder()
	// The service workloads' engine is the server's default configuration on
	// the service design. A segment here is a quarter of an end-to-end
	// round's measured work.
	ld := w.load(sc)
	prof, cfg, kind, segCycles := sc.serviceDesign, core.GSIM(), stimBoot, ld.size*ld.segs/4*opCycles
	if w.cfg != nil {
		prof, cfg, kind, segCycles = sc.engineDesign, w.cfg(), w.stim, ld.size*ld.segs/4/opCycles*opCycles
	}
	text, err := designText(prof)
	if err != nil {
		return err
	}
	design, err := compileLayers(text, cfg, sc, rec, r)
	if err != nil {
		return err
	}
	if err := engineLayers(design, cfg, newStimulus(kind, prof, seed), segCycles, sc, rec, r); err != nil {
		return err
	}
	if err := serviceLedger(sc, seed, rec, r, log); err != nil {
		return err
	}

	self, count := rec.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "\n   spans (self time = span - children):\n")
	for _, n := range names {
		fmt.Fprintf(log, "   %-24s %8d spans %12.3f ms self\n", n, count[n], self[n].Seconds()*1000)
	}
	return rec.write(filepath.Join(outDir, "trace-"+w.name+".json"))
}

// timed runs f inside a span and returns its duration in milliseconds.
func timed(rec *spanRecorder, name string, op int, f func()) float64 {
	sp := rec.begin(name, op, -1)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	rec.end(sp)
	return d.Seconds() * 1000
}

// compileLayers walks text -> graph -> passes -> emit -> partition by hand,
// the same calls in the same order as core.CompileDesign, then calls
// core.CompileDesign itself for the design the later stages use.
func compileLayers(text string, cfg core.Config, sc scale, rec *spanRecorder, r *report) (*core.CompiledDesign, error) {
	var loadMS, passMS, emitMS, partMS []float64
	var nodesIn, nodesOut int
	var prog *emit.Program
	var part *partition.Result
	var err error
	load := func(op int) (g *ir.Graph) {
		loadMS = append(loadMS, timed(rec, "firrtl.load", op, func() { g, err = firrtl.Load(text) }))
		return g
	}
	for rep := 0; rep < sc.layerReps; rep++ {
		runtime.GC()
		g := load(rep)
		if err != nil {
			return nil, err
		}
		passMS = append(passMS, timed(rec, "passes.run", rep, func() {
			passes.Normalize(g)
			nodesIn = len(g.Nodes)
			passes.Run(g, cfg.Opt)
			nodesOut = len(g.Nodes)
		}))
		if err := g.SortTopological(); err != nil {
			return nil, err
		}
		emitMS = append(emitMS, timed(rec, "emit.compile", rep, func() { prog, err = emit.Compile(g) }))
		if err != nil {
			return nil, err
		}
		// Full-cycle configurations skip this layer; it is still measured, on
		// the graph they would hand it, so the row exists for every design.
		partMS = append(partMS, timed(rec, "partition.build", rep, func() {
			part = partition.Build(g, cfg.Partition, core.DefaultMaxSupernode)
		}))
	}
	r.set("firrtl.load_ms", median(loadMS))
	r.set("firrtl.load_mb_s", float64(len(text))/1e6/(median(loadMS)/1000))
	r.set("passes.run_ms", median(passMS))
	r.set("passes.nodes_in", float64(nodesIn))
	r.set("passes.nodes_out", float64(nodesOut))
	r.set("partition.build_ms", median(partMS))
	r.set("partition.supernodes", float64(part.Count()))
	r.set("partition.mean_size", part.AvgSize())
	r.set("emit.compile_ms", median(emitMS))
	r.set("emit.instrs", float64(len(prog.Instrs)))
	fused := 0
	for rule, n := range emit.FusionStats(prog.Instrs) {
		fused += n * emit.FuseRule(rule).Arity()
	}
	r.set("emit.fused_share", 100*float64(fused)/float64(len(prog.Instrs)))
	r.set("emit.code_bytes", float64(prog.CodeBytes()))
	r.set("emit.data_bytes", float64(prog.DataBytes()))

	runtime.GC()
	g := load(sc.layerReps)
	if err != nil {
		return nil, err
	}
	var design *core.CompiledDesign
	r.set("core.compile_design_ms", timed(rec, "core.compile_design", sc.layerReps, func() { design, err = core.CompileDesign(g, cfg) }))
	return design, err
}

// sweepNS times the ledger's bottom rung: the whole instruction stream as
// one bound chain over a bare Machine — no engine, no commit, no activity
// logic — in nanoseconds per instruction.
func sweepNS(prog *emit.Program, batches int) float64 {
	m := emit.NewMachine(prog)
	chain := prog.CompileChainBound(m, prog.Instrs)
	sweeps := 1 + 20_000_000/len(prog.Instrs)
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for s := 0; s < sweeps; s++ {
			for _, fn := range chain {
				fn()
			}
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(sweeps*len(prog.Instrs))
	}
	return median(per)
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

func engineLayers(design *core.CompiledDesign, cfg core.Config, stim *stimulus, segCycles int, sc scale, rec *spanRecorder, r *report) error {
	sim, err := design.NewSim(cfg)
	if err != nil {
		return err
	}
	defer sim.Close()
	run, err := newEngineRun(sim, design.Graph)
	if err != nil {
		return err
	}
	attach, ok := sim.(interface {
		AttachTracer(engine.Tracer)
		AttachObs(*engine.Metrics)
	})
	if !ok {
		return fmt.Errorf("%T takes neither tracer nor metrics", sim)
	}
	buf := newStimBuffer(segCycles)
	var opLats []float64 // plain segments only
	segment := func(rec *spanRecorder, lat []float64) float64 {
		vals := buf.fill(stim, segCycles)
		runtime.GC()
		ns := float64(run.segment(vals, lat, rec).Nanoseconds()) / float64(segCycles)
		opLats = append(opLats, lat...)
		return ns
	}
	run.segment(buf.fill(stim, max(segCycles/4/opCycles*opCycles, opCycles)), nil, nil)

	// Rounds of {plain, with spans, with metrics}: the three variants share
	// whatever the host is doing during a round.
	reg := obs.NewRegistry()
	bundle := engine.NewMetrics(reg)
	// Spans and metrics observe the simulation without changing it, so the
	// per-cycle counts are taken over all three variants together.
	var plainNS, spansNS, obsNS []float64
	before := *sim.Stats()
	for i := 0; i < sc.layerSegs; i++ {
		plainNS = append(plainNS, segment(nil, make([]float64, segCycles/opCycles)))
		spansNS = append(spansNS, segment(rec, nil))
		attach.AttachObs(bundle)
		obsNS = append(obsNS, segment(nil, nil))
		attach.AttachObs(nil)
	}
	after := *sim.Stats()
	step := median(plainNS)
	cycles := float64(after.Cycles - before.Cycles)
	evals := float64(after.NodeEvals-before.NodeEvals) / cycles
	instrs := float64(after.InstrsExecuted-before.InstrsExecuted) / cycles
	sweep := sweepNS(design.Prog, sc.layerSegs)
	r.set("emit.sweep_ns_per_instr", sweep)
	r.set("engine.step_ns_per_cycle", step)
	r.set("engine.op_p95_ms", percentile(opLats, 95)*1000)
	r.set("engine.ns_per_eval", step/evals)
	r.set("engine.evals_per_cycle", evals)
	r.set("engine.instrs_per_cycle", instrs)
	r.set("engine.activations_per_cycle", float64(after.Activations-before.Activations)/cycles)
	r.set("engine.examinations_per_cycle", float64(after.Examinations-before.Examinations)/cycles)
	r.set("engine.reg_commits_per_cycle", float64(after.RegCommits-before.RegCommits)/cycles)
	r.set("engine.activity_factor", 100*evals/float64(after.EvaluableNodes))
	// What a cycle costs beyond bare kernel execution of the instructions it
	// retired: activation scan, examination, commit, per-cycle fixed cost.
	r.set("engine.overhead_ns_per_cycle", step-instrs*sweep)
	r.set("tracing_overhead_pct", 100*(median(spansNS)/step-1))
	r.set("obs.metrics_overhead_pct", 100*(median(obsNS)/step-1))
	r.Counts["engine_cycles"] = after.Cycles - before.Cycles
	r.Counts["engine_node_evals"] = after.NodeEvals - before.NodeEvals
	r.Counts["engine_instrs"] = after.InstrsExecuted - before.InstrsExecuted
	r.attempted += run.ops

	scrapeMS := make([]float64, sc.layerIters)
	for i := range scrapeMS {
		scrapeMS[i] = timed(rec, "obs.scrape", i, func() { _, err = reg.WriteTo(io.Discard) })
		if err != nil {
			return err
		}
	}
	r.set("obs.scrape_ms", median(scrapeMS))

	// One segment with the asynchronous VCD pipeline attached; the clock
	// stops when the writer has drained.
	sink := &countingWriter{}
	vcd, err := trace.NewVCD(sink, design.Prog, nil, trace.Options{})
	if err != nil {
		return err
	}
	vals := buf.fill(stim, segCycles)
	runtime.GC()
	attach.AttachTracer(vcd)
	t0 := time.Now()
	run.segment(vals, nil, nil)
	err = vcd.Close()
	wall := time.Since(t0)
	attach.AttachTracer(nil)
	if err != nil {
		return err
	}
	vcdNS := float64(wall.Nanoseconds()) / float64(segCycles)
	r.set("trace.step_ns_per_cycle_vcd", vcdNS)
	r.set("trace.vcd_mb_s", float64(sink.n)/1e6/wall.Seconds())
	r.set("trace.overhead_pct", 100*(vcdNS/step-1))

	var saveMS, restoreMS, putMS, newsimMS []float64
	store := snapshot.NewStore(0)
	var blob []byte
	for i := 0; i < sc.layerIters; i++ {
		saveMS = append(saveMS, timed(rec, "snapshot.save", i, func() { blob, err = snapshot.Save(sim) }))
		if err != nil {
			return err
		}
		restoreMS = append(restoreMS, timed(rec, "snapshot.restore", i, func() { err = snapshot.Restore(sim, blob) }))
		if err != nil {
			return err
		}
		var key string
		putMS = append(putMS, timed(rec, "snapshot.store_put", i, func() { key = store.Put(blob) }))
		store.Delete(key)
		newsimMS = append(newsimMS, timed(rec, "core.newsim", i, func() {
			var s engine.Sim
			if s, err = design.NewSim(cfg); err == nil {
				s.Close()
			}
		}))
		if err != nil {
			return err
		}
	}
	r.set("snapshot.save_ms", median(saveMS))
	r.set("snapshot.restore_ms", median(restoreMS))
	r.set("snapshot.blob_kb", float64(len(blob))/1024)
	r.set("snapshot.store_put_ms", median(putMS))
	r.set("core.newsim_ms", median(newsimMS))

	// A compile-cache hit: Get on a resident key plus the matching Release.
	cache := core.NewCompileCache()
	compile := func() (*core.CompiledDesign, error) { return design, nil }
	if _, _, err := cache.Get("design", compile); err != nil {
		return err
	}
	const gets = 1000
	hitUS := make([]float64, sc.layerIters)
	for i := range hitUS {
		hitUS[i] = timed(rec, "core.cache_hit_get", i, func() { // one span per batch: a hit is ~70 ns
			for j := 0; j < gets; j++ {
				cache.Get("design", compile) // resident: cannot fail
				cache.Release("design")
			}
		}) * 1000 / gets
	}
	r.set("core.cache_hit_get_us", median(hitUS))
	return nil
}

// rung is one row of the ledger: the same op stream through one more layer.
// Every rung has its own client with the same seed, so all of them send the
// same requests and must read the same answers.
type rung struct {
	name   string
	client *sessionClient
	send   func(*request) bool

	perSeg   []float64 // ns per simulated cycle, per measured segment
	lats     []float64 // every measured op's latency, seconds
	peekLats []float64 // the peek-only ops among them
}

func (g *rung) nsPerCycle() float64 { return fastTime(g.perSeg) }
func (g *rung) opUS() float64       { return median(g.lats) * 1e6 }

// segment sends the rung's next n requests; measured segments record spans
// and latencies.
func (g *rung) segment(n int, measured bool, rec *spanRecorder) {
	c := g.client
	cycles := c.prepare(n)
	runtime.GC()
	if !measured {
		c.run(g.send, nil, nil, "")
		c.verify()
		return
	}
	lat := make([]float64, n)
	t0 := time.Now()
	c.run(g.send, lat, rec, g.name)
	g.perSeg = append(g.perSeg, float64(time.Since(t0).Nanoseconds())/float64(cycles))
	c.verify()
	g.lats = append(g.lats, lat...)
	for i, q := range c.reqs {
		if !q.poke {
			g.peekLats = append(g.peekLats, lat[i])
		}
	}
}

// serviceLedger sends one op stream through four stacks — the bare engine,
// Session.Apply in process, HTTP, routed HTTP — one segment each in turn, so
// all four see the same host conditions and adjacent rows subtract cleanly.
// Then come the warm creates, the routed rung's live migration, and one more
// segment everywhere to show the migrated session still answers like the
// others.
func serviceLedger(sc scale, seed int64, rec *spanRecorder, r *report, log io.Writer) error {
	text, err := designText(sc.serviceDesign)
	if err != nil {
		return err
	}
	graph, err := firrtl.Load(text)
	if err != nil {
		return err
	}
	createBody, err := json.Marshal(server.CreateRequest{FIRRTL: text})
	if err != nil {
		return err
	}
	ctx := context.Background()
	newRung := func(name string) (*rung, error) {
		c, err := newSessionClient(graph, sc, seed, 0)
		return &rung{name: name, client: c}, err
	}

	direct, err := newRung("engine.step")
	if err != nil {
		return err
	}
	sys, err := core.Build(graph, core.GSIM())
	if err != nil {
		return err
	}
	defer sys.Close()
	stimID, outID, err := ports(sys.Graph)
	if err != nil {
		return err
	}
	direct.send = func(q *request) bool {
		stepDirect(sys.Sim, stimID, q)
		q.got = sys.Sim.Peek(outID).String()
		return true
	}

	apply, err := newRung("server.apply")
	if err != nil {
		return err
	}
	mgr := server.NewManager()
	mgr.InitObs(obs.NewRegistry())
	defer mgr.Drain(ctx)
	sess, err := mgr.CreateSession(text, server.SessionSpec{})
	if err != nil {
		return err
	}
	apply.send = func(q *request) bool {
		res, err := sess.Apply(ctx, q.ops)
		if err != nil || len(res) == 0 {
			return false
		}
		q.got = res[len(res)-1].Value
		return true
	}

	overHTTP := func(name string, routed bool) (*rung, *service, error) {
		g, err := newRung(name)
		if err != nil {
			return nil, nil, err
		}
		svc, err := openService(routed, createBody, []*sessionClient{g.client})
		g.send = g.client.sendHTTP
		return g, svc, err
	}
	viaHTTP, httpSvc, err := overHTTP("server.http", false)
	if err != nil {
		return err
	}
	defer httpSvc.topo.close()
	routed, routedSvc, err := overHTTP("fleet.routed", true)
	if err != nil {
		return err
	}
	defer routedSvc.topo.close()

	rungs := []*rung{direct, apply, viaHTTP, routed}
	reqs := sc.ledgerReqs
	for _, g := range rungs {
		g.segment(max(reqs/4, 1), false, nil)
	}
	for s := 0; s < sc.layerSegs; s++ {
		for _, g := range rungs {
			g.segment(reqs, true, rec)
		}
	}
	warmCreates := func(svc *service, span string) float64 {
		ms := make([]float64, sc.layerIters)
		for i := range ms {
			ms[i] = timed(rec, span, i, func() {
				if id, ok := svc.create(); ok {
					svc.delete(id)
				}
			})
		}
		return median(ms)
	}
	r.set("server.create_warm_ms", warmCreates(httpSvc, "server.http.create"))
	// The cold create a fresh server pays for a design it has never seen.
	coldMS := make([]float64, 1+sc.layerIters/3)
	for i := range coldMS {
		cold, err := openService(false, createBody, nil)
		if err != nil {
			return err
		}
		var id string
		var ok bool
		runtime.GC()
		coldMS[i] = timed(rec, "server.http.create_cold", i, func() { id, ok = cold.create() })
		if ok {
			cold.delete(id)
		}
		a, f := cold.counts()
		r.attempted, r.failed = r.attempted+a, r.failed+f
		cold.topo.close()
	}
	r.set("server.create_cold_ms", median(coldMS))
	// Snapshot and restore over HTTP into the same session: base64 and JSON
	// on top of snapshot.save_ms and snapshot.restore_ms.
	snapMS := make([]float64, sc.layerIters)
	for i := range snapMS {
		var image string
		url := viaHTTP.client.sessionURL
		snapMS[i] = timed(rec, "server.http.snapshot_rt", i, func() { image, _ = httpSvc.saveRestore(url) })
		if !httpSvc.unchangedBy(url, image) {
			r.problem("ledger: a snapshot round trip over HTTP changed the state")
		}
	}
	r.set("server.snapshot_rt_ms", median(snapMS))
	r.set("fleet.create_routed_ms", warmCreates(routedSvc, "fleet.routed.create"))
	r.set("fleet.migrate_ms", routedSvc.migrate(r).Seconds()*1000)
	for _, g := range rungs[:3] {
		g.segment(reqs, false, nil)
	}
	// The routed rung's segment after the migration is measured, but kept out
	// of the ledger's samples: it is the new home's first traffic.
	nSeg, nLat, nPeek := len(routed.perSeg), len(routed.lats), len(routed.peekLats)
	routed.segment(reqs, true, rec)
	r.set("fleet.post_migrate_op_us", median(routed.lats[nLat:])*1e6)
	routed.perSeg, routed.lats, routed.peekLats = routed.perSeg[:nSeg], routed.lats[:nLat], routed.peekLats[:nPeek]
	lost, _ := routedSvc.sessionsLost()
	r.set("fleet.sessions_lost", float64(lost))
	if lost != 0 {
		r.problem("router lost %d sessions", lost)
	}

	r.set("server.apply_us", apply.opUS())
	r.set("server.apply_tax_us", apply.opUS()-direct.opUS())
	r.set("server.http_op_us", viaHTTP.opUS())
	r.set("server.http_tax_us", viaHTTP.opUS()-apply.opUS())
	r.set("server.peek_op_us", median(viaHTTP.peekLats)*1e6)
	r.set("server.op_p95_ms", percentile(viaHTTP.lats, 95)*1000)
	r.set("server.op_p99_ms", percentile(viaHTTP.lats, 99)*1000)
	r.set("server.op_p999_ms", percentile(viaHTTP.lats, 99.9)*1000)
	_, httpFailed := httpSvc.counts()
	r.set("server.ops_failed", float64(httpFailed))
	r.set("fleet.routed_op_us", routed.opUS())
	r.set("fleet.routed_op_p95_ms", percentile(routed.lats, 95)*1000)
	r.set("fleet.hop_tax_us", routed.opUS()-viaHTTP.opUS())

	// The ledger: every row is the row above plus one layer. The bottom row
	// is what the bare kernels cost for the instructions the engine retired.
	st := sys.Sim.Stats()
	sweep := float64(st.InstrsExecuted) / float64(st.Cycles) * sweepNS(sys.Prog, sc.layerSegs)
	fmt.Fprintf(log, "\n   ledger on %s: one simulated cycle, layer by layer\n", sc.serviceDesign.Name)
	fmt.Fprintf(log, "   %-14s %12s %12s %12s\n", "row", "ns/cycle", "+ns/cycle", "% of routed")
	fmt.Fprintf(log, "   %-14s %12.1f %12.1f %11.1f%%\n", "emit.sweep", sweep, sweep, 100*sweep/routed.nsPerCycle())
	prev := sweep
	digest := sha256.New()
	for _, g := range rungs {
		ns := g.nsPerCycle()
		fmt.Fprintf(log, "   %-14s %12.1f %12.1f %11.1f%%\n", g.name, ns, ns-prev, 100*ns/routed.nsPerCycle())
		prev = ns
		c := g.client
		got, want := fmt.Sprintf("%x", c.observed.Sum(nil)), fmt.Sprintf("%x", c.expected.Sum(nil))
		if c.mismatches > 0 || got != want {
			r.problem("ledger row %s: %d of %d answers differ from the in-process twin", g.name, c.mismatches, c.issued)
		}
		io.WriteString(digest, got)
		c.twin.Close()
	}
	r.Digest = fmt.Sprintf("%x", digest.Sum(nil))
	r.attempted += direct.client.issued + apply.client.issued
	for _, svc := range []*service{httpSvc, routedSvc} {
		a, f := svc.counts()
		r.attempted, r.failed = r.attempted+a, r.failed+f
	}
	return nil
}
