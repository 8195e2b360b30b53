// Command gsim-diag prints per-configuration engine counters (activity
// factor, evaluations, examinations, activations, instructions per cycle,
// speed) for one synthetic design profile — the tool used to tune the
// partitioner defaults and to sanity-check the cost model against the
// paper's T = ((E+Asucc)*af + Aexam)*N.
//
//	go run ./cmd/gsim-diag [rocket|boom|xiangshan]
//
// Live mode inspects a running service instead: -live scrapes a gsim-serve
// (or gsim-router) /metrics endpoint twice, -interval apart, and renders the
// deltas as rates — simulation kHz per session, compile-cache hit rate, and
// op/migration latency quantiles estimated from the histogram buckets.
//
//	go run ./cmd/gsim-diag -live http://127.0.0.1:8080 [-interval 2s]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gsim/internal/core"
	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/gen"
	"gsim/internal/harness"
	"gsim/internal/ir"
	"gsim/internal/partition"
	"gsim/internal/passes"
	"gsim/internal/server"
	"gsim/internal/snapshot"
	"gsim/internal/trace"
)

// refCountSummary renders the optimized graph's combinational nodes by
// reference count — the k of the node-level rule cost·k > cost + cost_node,
// which no plain node passes at k = 1 — and the share of them that node
// extraction made (_cse).
func refCountSummary(g *ir.Graph) string {
	refs := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		n.EachRef(func(u *ir.Node) { refs[u.ID]++ })
	}
	var by [4]int // 0 (outputs), 1, 2, 3 or more references
	comb, cse := 0, 0
	for _, n := range g.Nodes {
		if n.Kind != ir.KindComb {
			continue
		}
		comb++
		if strings.HasPrefix(n.Name, "_cse") {
			cse++
		}
		by[min(refs[n.ID], 3)]++
	}
	return fmt.Sprintf("comb=%d by refs: 0=%d 1=%d 2=%d 3+=%d  cse=%d (%.1f%% of comb)",
		comb, by[0], by[1], by[2], by[3], cse, 100*float64(cse)/float64(max(comb, 1)))
}

// scheduleSummary is a row's multi-worker schedule: shard imbalance and the
// dependence levels merged into scheduled ones (one barrier per scheduled
// level per cycle). Empty for a one-worker engine, which has none.
func scheduleSummary(sv *partition.ShardView) string {
	if sv == nil {
		return ""
	}
	return fmt.Sprintf(" imbalance=%.2f levels=%d->%d barriers/cyc=%d",
		sv.Imbalance(), sv.OrigLevels, sv.Levels, sv.Levels)
}

func main() {
	live := flag.String("live", "", "base URL of a running gsim-serve/gsim-router; scrape its /metrics twice and render rates instead of the synthetic suite")
	interval := flag.Duration("interval", 2*time.Second, "gap between the two -live scrapes")
	flag.Parse()
	if *live != "" {
		if err := runLive(os.Stdout, *live, *interval); err != nil {
			fmt.Fprintln(os.Stderr, "gsim-diag:", err)
			os.Exit(1)
		}
		return
	}

	prof := gen.StuCoreLike()
	if flag.NArg() > 0 {
		switch flag.Arg(0) {
		case "rocket":
			prof = gen.RocketLike()
		case "boom":
			prof = gen.BoomLike()
		case "xiangshan":
			prof = gen.XiangShanLike()
		}
	}
	d := harness.Synthetic(prof)
	// The source graph: graph statistics read it optimized (core.Optimize),
	// since a compiled design keeps no expression trees, and sessions start
	// from it.
	src, _, err := d.Build(harness.WorkloadCoreMark)
	if err != nil {
		panic(err)
	}
	cfgs := []core.Config{core.Verilator(), core.VerilatorMT(2), core.Arcilator(), core.Essent(), core.GSIM()}
	// The same pipeline under the reference interpreter and the pre-fusion
	// kernel baseline, to see what the stream kernels — and the
	// superinstruction/width-class pipeline on top of them — buy here.
	gi := core.GSIM()
	gi.Name = "gsim-interp"
	gi.Eval = engine.EvalInterp
	gnf := core.GSIM()
	gnf.Name = "gsim-nofuse"
	gnf.Eval = engine.EvalKernelNoFuse
	cfgs = append(cfgs, gi, gnf)
	// The multi-threaded essential-signal engine; it and verilator-2T report
	// shard balance and the schedule change (scheduleSummary).
	cfgs = append(cfgs, core.GSIMMT(2))
	// add gsim variants
	g2 := core.GSIM()
	g2.Name = "gsim-mffc"
	g2.Partition = partition.MFFC
	g3 := core.GSIM()
	g3.Name = "gsim-noopt"
	g3.Opt = core.Essent().Opt
	cfgs = append(cfgs, g2, g3)
	for _, sz := range []int{2, 4, 8, 16, 64} {
		gc := core.GSIM()
		gc.Name = fmt.Sprintf("gsim-sz%d", sz)
		gc.MaxSupernode = sz
		cfgs = append(cfgs, gc)
	}
	for _, sz := range []int{4, 8, 16} {
		gc := core.GSIM()
		gc.Partition = partition.MFFC
		gc.Name = fmt.Sprintf("gsim-mffc%d", sz)
		gc.MaxSupernode = sz
		cfgs = append(cfgs, gc)
	}
	for _, cfg := range cfgs {
		sys, drive, err := harness.BuildSystemForDiag(d, "coremark", cfg)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		n := 400
		for c := 0; c < n; c++ {
			drive(sys.Sim, c)
			sys.Sim.Step()
		}
		hz := float64(n) / time.Since(start).Seconds()
		st := sys.Sim.Stats()
		og, _, err := core.Optimize(src, cfg.Opt)
		if err != nil {
			panic(err)
		}
		gstats := og.ComputeStats()
		nsup := 0
		if sys.Part != nil {
			nsup = sys.Part.Count()
		}
		// instr/cyc reads the machine's retired counter, which must agree
		// with the engine stats in every evaluation mode.
		if ex := sys.Sim.Machine().Executed; ex != st.InstrsExecuted {
			panic(fmt.Sprintf("%s: Machine.Executed=%d disagrees with stats.InstrsExecuted=%d", cfg.Name, ex, st.InstrsExecuted))
		}
		fmt.Printf("%-16s nodes=%-6d sups=%-6d af=%.4f evals/cyc=%-7d exam/cyc=%-7d act/cyc=%-6d instr/cyc=%-8d speed=%.1fkHz%s\n",
			cfg.Name, gstats.Nodes, nsup, st.ActivityFactor(),
			st.NodeEvals/st.Cycles, st.Examinations/st.Cycles, st.Activations/st.Cycles, sys.Sim.Machine().Executed/st.Cycles, hz/1000,
			scheduleSummary(sys.Sim.Shard()))
		fmt.Printf("%-16s passes %v: %s\n", "", sys.PassTime.Round(time.Microsecond), sys.PassResult.Timing())
		fmt.Printf("%-16s %s\n", "", refCountSummary(og))
		sys.Close()
	}

	// What one compiled design keeps alive, per design and engine kind: the
	// measured heap next to the compile cache's accounting of it.
	rv32, _, err := harness.StuCore().Build(harness.WorkloadCoreMark)
	if err != nil {
		panic(err)
	}
	for _, dg := range []struct {
		name string
		g    *ir.Graph
	}{{d.Name, src}, {"rv32", rv32}} {
		for _, cfg := range []core.Config{core.GSIM(), core.GSIMMT(2), core.Verilator()} {
			printRetained(dg.name, dg.g, cfg)
		}
	}

	// Traced throughput: the same engine with waveform capture through the
	// synchronous coordinator-side writer vs the async pipeline (both to a
	// discarding sink, so the comparison isolates where the formatting work
	// runs, not disk speed). The async number must not trail the sync one.
	for _, mode := range []struct {
		name string
		opt  trace.Options
	}{
		{"sync", trace.Options{Sync: true}},
		{"async", trace.Options{}},
	} {
		sys, drive, err := harness.BuildSystemForDiag(d, "coremark", core.GSIM())
		if err != nil {
			panic(err)
		}
		tr, err := trace.NewVCD(io.Discard, sys.Prog, nil, mode.opt)
		if err != nil {
			panic(err)
		}
		sys.Sim.(interface{ AttachTracer(engine.Tracer) }).AttachTracer(tr)
		start := time.Now()
		n := 400
		for c := 0; c < n; c++ {
			drive(sys.Sim, c)
			sys.Sim.Step()
		}
		hz := float64(n) / time.Since(start).Seconds()
		if err := tr.Close(); err != nil {
			panic(err)
		}
		fmt.Printf("traced-%-10s speed=%.1fkHz\n", mode.name, hz/1000)
		sys.Close()
	}

	// Service-layer diagnostics. Compile cache: two sessions of the same
	// design and config must share one compile (hit rate 50% over two
	// lookups); per-session step throughput shows what each concurrent
	// session of the shared design sustains through the batched-op path.
	{
		mgr := server.NewManager()
		var sess []*server.Session
		for i := 0; i < 2; i++ {
			s, err := mgr.CreateSessionGraph(src, "diag", server.SessionSpec{})
			if err != nil {
				panic(err)
			}
			sess = append(sess, s)
		}
		cs := mgr.CacheStats()
		fmt.Printf("compile-cache    sessions=%d designs=%d hits=%d misses=%d hitrate=%.1f%% compile=%v\n",
			mgr.SessionCount(), cs.Designs, cs.Hits, cs.Misses,
			100*float64(cs.Hits)/float64(cs.Hits+cs.Misses), sess[0].Design.CompileTime.Round(1000))
		n := 400
		for _, s := range sess {
			if _, err := s.Apply(context.Background(), []server.Op{{Op: "step", N: n}}); err != nil {
				panic(err)
			}
		}
		for i, s := range sess {
			fmt.Printf("session-step     session=%s cycles=%d speed=%.1fkHz/session%d\n",
				s.ID, n, s.Throughput(), i)
		}
		if err := mgr.Drain(context.Background()); err != nil {
			panic(err)
		}
	}

	// Snapshot cost on this profile: blob size and encode/decode time for a
	// mid-run checkpoint (the quantities a checkpointing service budgets).
	{
		sys2, drive2, err := harness.BuildSystemForDiag(d, "coremark", core.GSIM())
		if err != nil {
			panic(err)
		}
		for c := 0; c < 200; c++ {
			drive2(sys2.Sim, c)
			sys2.Sim.Step()
		}
		start := time.Now()
		blob, err := snapshot.Save(sys2.Sim)
		if err != nil {
			panic(err)
		}
		encodeT := time.Since(start)
		sys3, _, err := harness.BuildSystemForDiag(d, "coremark", core.GSIM())
		if err != nil {
			panic(err)
		}
		start = time.Now()
		if err := snapshot.Restore(sys3.Sim, blob); err != nil {
			panic(err)
		}
		decodeT := time.Since(start)
		fmt.Printf("snapshot         size=%dKB encode=%v decode=%v cycles=%d\n",
			len(blob)/1024, encodeT.Round(1000), decodeT.Round(1000), sys2.Sim.Stats().Cycles)
		sys2.Close()
		sys3.Close()
	}

	// Fusion reach on this profile, the real RV32 core and every testdata
	// design, measured over the chains the engines actually compile: under
	// GSIM each supernode's concatenated member instructions, under the
	// full-cycle preset the whole stream as one chain (their adjacencies
	// differ). The counts are indexed by the generated FuseRule table, so a
	// new table line shows up here without touching this tool. Each design's
	// footprint line gives the compiled stream's size — kernels, operand
	// records, bytes — which is what a cycle pulls through the caches. Then
	// the rules that fired nowhere in this whole run — a never-firing rule is
	// either dead weight or missing a representative design, so it is
	// flagged explicitly — and the same for inline value rows: the generic
	// rules' producer breakdown is the evidence the value table's Inline
	// marks are chosen from.
	total := newFusionCounts()
	fusion := func(label string, sys *core.System) {
		c := chainFusionStats(sys)
		printFusion(label, c)
		printFootprint(strings.Replace(label, "fusion", "footprint", 1), sys)
		total.add(c.instrs, c.producers, c.elidable)
		sys.Close()
	}
	files, _ := filepath.Glob("testdata/*.fir")
	for _, fc := range []struct {
		suffix string
		cfg    func() core.Config
	}{{"", core.GSIM}, {" full-cycle", core.Verilator}} {
		sys, _, err := harness.BuildSystemForDiag(d, "coremark", fc.cfg())
		if err != nil {
			panic(err)
		}
		fusion(strings.TrimSpace("fusion"+fc.suffix), sys)
		rv32, _, err := harness.BuildSystemForDiag(harness.StuCore(), "coremark", fc.cfg())
		if err != nil {
			panic(err)
		}
		fusion("fusion[rv32"+fc.suffix+"]", rv32)
		for _, f := range files {
			g, err := firrtl.LoadFile(f)
			if err != nil {
				panic(err)
			}
			tsys, err := core.Build(g, fc.cfg())
			if err != nil {
				panic(err)
			}
			fusion("fusion["+filepath.Base(f)+fc.suffix+"]", tsys)
		}
	}
	var neverFuse, neverInline []string
	for r := emit.FuseRuleNone + 1; r < emit.NumFuseRules; r++ {
		if total.counts[r] == 0 {
			neverFuse = append(neverFuse, r.String())
		}
	}
	for op, n := range total.producerTotals() {
		if emit.InlineProducer(emit.OpCode(op)) && n == 0 {
			neverInline = append(neverInline, emit.OpCode(op).String())
		}
	}

	// The algebraic counters are process-wide, so after building the profile
	// configurations and every testdata design they cover everything this run
	// compiled. The pipeline simplifies once, before inlining, on one
	// operation per node, so most patterns the rules match (a constant mask
	// under an and, say) only exist after inlining and never show here.
	alg := passes.AlgebraicRuleStats()
	fmt.Printf("simplify rules fired before inlining (all builds this run):")
	idle := 0
	for r := passes.AlgRuleNone + 1; r < passes.NumAlgRules; r++ {
		if alg[r] == 0 {
			idle++
			continue
		}
		fmt.Printf(" %s=%d", r, alg[r])
	}
	fmt.Printf(" (%d of %d rules idle)\n", idle, passes.NumAlgRules-1)
	if len(neverFuse) > 0 {
		fmt.Printf("never-fired fusion rules: %s\n", strings.Join(neverFuse, " "))
	}
	if len(neverInline) > 0 {
		fmt.Printf("inline rows that never fire: %s\n", strings.Join(neverInline, " "))
	}
}

// printRetained compiles g under cfg and prints the heap the compiled design
// keeps alive — the HeapAlloc delta across the compile, each side read after
// two GCs — next to the compile cache's cost of it and that cost's parts,
// then the design's state image layout: persistent words, the words of one
// temporary region, and the regions an engine of cfg allocates, one per
// worker.
func printRetained(design string, g *ir.Graph, cfg core.Config) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	cd, err := core.CompileDesign(g, cfg)
	if err != nil {
		panic(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	f := cd.Footprint()
	const mb = 1 << 20
	fmt.Printf("retained[%s %s] heap=%.2fMB cost=%.2fMB (code=%.2f data=%.2f mem=%.2f plan=%.2f graph=%.2f)\n",
		design, cd.Config.Engine, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/mb, float64(f.Total())/mb,
		float64(f.Code)/mb, float64(f.Data)/mb, float64(f.Mem)/mb, float64(f.Plan)/mb, float64(f.Graph)/mb)
	// The state image split: what every engine, snapshot and migration
	// carries (state) against the scratch each worker owns (temps).
	fmt.Printf("layout[%s %s] state=%d temps=%d regions=%d\n",
		design, cd.Config.Engine, cd.Prog.StateWords, cd.Prog.TempWords, max(cd.Config.Threads, 1))
	runtime.KeepAlive(cd)
}

// fusionCounts is a per-rule fusion histogram over one system's chains,
// broken down by producer opcode.
type fusionCounts struct {
	instrs    int
	counts    []int   // indexed by emit.FuseRule
	producers [][]int // [emit.FuseRule][emit.OpCode]
	elidable  []int   // indexed by emit.FuseRule: windows whose producer's store only the consumer reads
}

func newFusionCounts() fusionCounts {
	return fusionCounts{counts: make([]int, emit.NumFuseRules), producers: emit.FusionProducers(nil), elidable: make([]int, emit.NumFuseRules)}
}

// add accumulates a producer breakdown and elidable-store counts over
// instrs chained instructions.
func (c *fusionCounts) add(instrs int, producers [][]int, elidable []int) {
	c.instrs += instrs
	for r, byOp := range producers {
		for op, n := range byOp {
			c.producers[r][op] += n
			c.counts[r] += n
		}
		c.elidable[r] += elidable[r]
	}
}

// chainFusionStats accumulates emit.FusionProducers over every chain the
// system's engine compiles, exactly as emit.Stream sees them: one per
// supernode, or the whole stream for an unpartitioned (full-cycle) system.
func chainFusionStats(sys *core.System) fusionCounts {
	c := newFusionCounts()
	add := func(chain []emit.Instr) {
		c.add(len(chain), emit.FusionProducers(chain), emit.ElidableStores(sys.Prog, chain))
	}
	if sys.Part == nil {
		add(sys.Prog.Instrs)
		return c
	}
	var chain []emit.Instr
	for _, members := range sys.Part.Members {
		chain = chain[:0]
		for _, id := range members {
			r := sys.Prog.Code[id]
			chain = append(chain, sys.Prog.Instrs[r.Start:r.End]...)
		}
		add(chain)
	}
	return c
}

// printFootprint compiles the system's chains into one stream the way its
// engine lays them out — one chain per supernode, or the whole program —
// and prints the stream's size.
func printFootprint(label string, sys *core.System) {
	s := emit.NewStream(sys.Prog, emit.Fused)
	if sys.Part == nil {
		s.Append(sys.Prog.Instrs)
	} else {
		for _, members := range sys.Part.Members {
			s.AppendNodes(members)
		}
	}
	kernels, records, bytes := s.Footprint()
	fmt.Printf("%s: kernels=%d records=%d bytes=%d (%.1f B/instr)\n",
		label, kernels, records, bytes, float64(bytes)/float64(max(len(sys.Prog.Instrs), 1)))
}

// generic reports whether r is a generic rule, whose producer is any inline
// value row.
func generic(r emit.FuseRule) bool { return strings.HasPrefix(r.Pattern(), "(pure)") }

// producerTotals sums the generic rules' windows per producer opcode.
func (c fusionCounts) producerTotals() []int {
	tot := make([]int, len(c.producers[0]))
	for r := emit.FuseRuleNone + 1; r < emit.NumFuseRules; r++ {
		if generic(r) {
			for op, n := range c.producers[r] {
				tot[op] += n
			}
		}
	}
	return tot
}

// printFusion prints one per-rule fusion line, then which producer opcodes
// fired each generic rule, then how many of each generic rule's windows
// store a temporary only their consumer reads — the stores ROADMAP
// direction 2(b) would keep in a register — out of its windows. Triples
// cover three instructions per window, so coverage is weighted by rule
// arity.
func printFusion(label string, c fusionCounts) {
	windows, covered := 0, 0
	fmt.Printf("%s (of %d chained instrs):", label, c.instrs)
	for r := emit.FuseRuleNone + 1; r < emit.NumFuseRules; r++ {
		fmt.Printf(" %s=%d", r, c.counts[r])
		windows += c.counts[r]
		covered += c.counts[r] * r.Arity()
	}
	pct := 0.0
	if c.instrs > 0 {
		pct = 100 * float64(covered) / float64(c.instrs)
	}
	fmt.Printf(" total=%d windows (%.1f%% of instrs fused)\n", windows, pct)
	fmt.Printf("%s producers:", label)
	for r := emit.FuseRuleNone + 1; r < emit.NumFuseRules; r++ {
		if !generic(r) || c.counts[r] == 0 {
			continue
		}
		ops := make([]int, 0, len(c.producers[r]))
		for op, n := range c.producers[r] {
			if n > 0 {
				ops = append(ops, op)
			}
		}
		sort.SliceStable(ops, func(i, j int) bool { return c.producers[r][ops[i]] > c.producers[r][ops[j]] })
		fmt.Printf(" %s[", r)
		for i, op := range ops {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%s=%d", emit.OpCode(op), c.producers[r][op])
		}
		fmt.Print("]")
	}
	fmt.Println()
	fmt.Printf("%s elidable stores:", label)
	for r := emit.FuseRuleNone + 1; r < emit.NumFuseRules; r++ {
		if generic(r) {
			fmt.Printf(" %s=%d/%d", r, c.elidable[r], c.counts[r])
		}
	}
	fmt.Println()
}
