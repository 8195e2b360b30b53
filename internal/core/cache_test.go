package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/faultpoint"
	"gsim/internal/gen"
	"gsim/internal/ir"
	"gsim/internal/partition"
)

// cacheDesign builds a small distinct design per index (the register count
// varies, so each compiles to a different nonzero byte cost).
func cacheDesign(t *testing.T, idx int) *ir.Graph {
	t.Helper()
	b := ir.NewBuilder(fmt.Sprintf("d%d", idx))
	en := b.Input("en", 1)
	prev := b.C(8, 1)
	for r := 0; r < 4+idx; r++ {
		reg := b.Reg(fmt.Sprintf("r%d", r), 8)
		b.SetNext(reg, b.Mux(b.R(en), b.AddW(b.R(reg), prev, 8), b.R(reg)))
		prev = b.R(reg)
	}
	b.Output("o", prev)
	return b.G
}

// TestCompileDesignRefusesCorruptProgram corrupts one instruction of a
// design compiled the way CompileDesign compiles it and checks that planning
// each engine over it, in every stream mode — the step of CompileDesign
// before the release — fails with an error carrying the stream builder's
// refusal, instead of panicking or, as the interpreter once did, indexing
// out of range at the first Step. The corrupt operand lands just past the
// first temporary region — inside a multi-worker machine, in another
// worker's region — or past the last region a multi-worker machine has.
func TestCompileDesignRefusesCorruptProgram(t *testing.T) {
	modes := []engine.EvalMode{engine.EvalKernel, engine.EvalKernelNoFuse, engine.EvalInterp}
	for _, preset := range []Config{Verilator(), VerilatorMT(2), GSIM(), GSIMMT(2), GSIMMT(4)} {
		for _, mode := range modes {
			for _, past := range []string{"first region", "last region"} {
				cfg := preset
				cfg.Eval = mode
				cfg = cfg.normalized()
				g, _, err := Optimize(cacheDesign(t, 0), cfg.Opt)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := emit.Compile(g)
				if err != nil {
					t.Fatal(err)
				}
				d := &CompiledDesign{Config: cfg, Graph: g, Prog: prog}
				if cfg.Engine == EngineActivity {
					d.Part = partition.Build(g, cfg.Partition, cfg.MaxSupernode)
				}
				d.Prog.Instrs[0].D = int32(prog.NumWords)
				if past == "last region" {
					d.Prog.Instrs[0].D = int32(prog.StateWords + max(cfg.Threads, 1)*prog.TempWords)
				}
				if err := d.buildPlan(); err == nil || !strings.Contains(err.Error(), "refusing instruction") {
					t.Errorf("%s/%s, past the %s: planning a corrupt program returned %v, want the refusal", cfg.Name, mode, past, err)
				}
			}
		}
	}
}

// TestNewSimRefusesOtherConfig: the plan is built for the design's own
// configuration, so NewSim refuses a session config differing in any field
// that shapes it, naming the field — and accepts the spellings CacheKey
// treats as one build.
func TestNewSimRefusesOtherConfig(t *testing.T) {
	d, err := CompileDesign(cacheDesign(t, 0), GSIM())
	if err != nil {
		t.Fatal(err)
	}
	for field, change := range map[string]func(*Config){
		"engine":        func(c *Config) { c.Engine = EngineFullCycle },
		"eval mode":     func(c *Config) { c.Eval = engine.EvalInterp },
		"worker count":  func(c *Config) { c.Threads = 2 },
		"activation":    func(c *Config) { c.Activity.Activation = engine.ActBranch },
		"partitioner":   func(c *Config) { c.Partition = partition.MFFC },
		"supernode cap": func(c *Config) { c.MaxSupernode = 2 * DefaultMaxSupernode },
	} {
		cfg := GSIM()
		change(&cfg)
		if sim, err := d.NewSim(cfg); err == nil {
			sim.Close()
			t.Errorf("%s: NewSim accepted a different %s", field, field)
		} else if !strings.Contains(err.Error(), field) {
			t.Errorf("%s: the refusal %q does not name the field", field, err)
		}
	}
	same := GSIMMT(1)
	same.MaxSupernode = DefaultMaxSupernode
	same.Opt.Inline = !same.Opt.Inline // the compile is done: passes do not shape the engine
	sim, err := d.NewSim(same)
	if err != nil {
		t.Fatalf("NewSim refused an equivalent config: %v", err)
	}
	sim.Close()
}

// TestNewSimConcurrent: NewSim only allocates over the shared plan, so
// engines built and stepped on four goroutines at once (run it under -race)
// reach one state.
func TestNewSimConcurrent(t *testing.T) {
	g := cacheDesign(t, 3)
	for _, cfg := range []Config{GSIM(), Verilator()} {
		d, err := CompileDesign(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		en := d.Graph.FindNode("en").ID
		states := make([][]uint64, 4)
		var wg sync.WaitGroup
		for i := range states {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sim, err := d.NewSim(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				defer sim.Close()
				sim.Poke(en, bitvec.FromUint64(1, 1))
				engine.StepN(sim, 100)
				states[i] = sim.Machine().State
			}()
		}
		wg.Wait()
		for i := range states {
			if !slices.Equal(states[i], states[0]) {
				t.Fatalf("%s: engine %d ended in another state than engine 0", cfg.Name, i)
			}
		}
	}
}

// TestDesignCostCountsPlan: the cache weighs a design by everything it pins,
// the shared engine plan included.
func TestDesignCostCountsPlan(t *testing.T) {
	d, err := CompileDesign(cacheDesign(t, 0), GSIM())
	if err != nil {
		t.Fatal(err)
	}
	bare := int64(d.Prog.CodeBytes() + d.Prog.DataBytes() + d.Prog.MemBytes())
	if cost := designCost(d); cost <= bare {
		t.Fatalf("designCost %d does not exceed code+data+mem %d: the plan is not counted", cost, bare)
	}
	// The design keeps the persistent words' initial image, not a machine's:
	// every engine allocates its own temporary regions.
	if f := d.Footprint(); f.Data != 8*d.Prog.StateWords || d.Prog.TempWords == 0 {
		t.Fatalf("footprint data %d B, want the %d persistent words (temporaries: %d words)", f.Data, d.Prog.StateWords, d.Prog.TempWords)
	}
}

// TestDesignCostCountsGraph: the released graph a compiled design keeps —
// nodes, names, initial values — is part of its cost, and with the
// expression trees gone it weighs less than the code and plan that run.
func TestDesignCostCountsGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the rocket-like design")
	}
	d, err := CompileDesign(gen.BuildProfile(gen.RocketLike()), GSIM())
	if err != nil {
		t.Fatal(err)
	}
	f := d.Footprint()
	if f.Graph == 0 || designCost(d) != int64(f.Total()) {
		t.Fatalf("designCost %d leaves out the graph: %+v", designCost(d), f)
	}
	if f.Graph >= f.Code+f.Plan {
		t.Fatalf("the released graph weighs %d bytes, more than the code and plan that run (%d)", f.Graph, f.Code+f.Plan)
	}
}

// TestOneWorkerSharesCompile: an unset thread count and one worker build
// the same engine, so GSIM and GSIMMT(1) — and Verilator and VerilatorMT(1) —
// share one cache entry: one miss, then a hit on the same design, and the
// hit builds an engine.
func TestOneWorkerSharesCompile(t *testing.T) {
	for _, pair := range [][2]Config{{GSIM(), GSIMMT(1)}, {Verilator(), VerilatorMT(1)}} {
		c := NewCompileCache()
		g := cacheDesign(t, 0)
		var designs [2]*CompiledDesign
		for i, cfg := range pair {
			d, hit, err := c.Get(CacheKey("test:0", cfg), func() (*CompiledDesign, error) { return CompileDesign(g, cfg) })
			if err != nil || hit != (i == 1) {
				t.Fatalf("%s: hit=%v err=%v, want a miss then a hit", cfg.Name, hit, err)
			}
			designs[i] = d
			sim, err := d.NewSim(cfg)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			sim.Close()
		}
		if hits, misses := c.Stats(); hits != 1 || misses != 1 || designs[0] != designs[1] {
			t.Fatalf("%s/%s: %d hits, %d misses, shared=%v", pair[0].Name, pair[1].Name, hits, misses, designs[0] == designs[1])
		}
	}
	// A one-worker full-cycle plan has no multi-worker schedule, so the design
	// refuses a session asking for more workers instead of sweeping nothing.
	d, err := CompileDesign(cacheDesign(t, 0), Verilator())
	if err != nil {
		t.Fatal(err)
	}
	if sim, err := d.NewSim(VerilatorMT(2)); err == nil {
		sim.Close()
		t.Fatal("a one-worker full-cycle design built a two-worker engine")
	}
}

func mustCompile(t *testing.T, c *CompileCache, idx int) (*CompiledDesign, string) {
	t.Helper()
	g := cacheDesign(t, idx)
	key := CacheKey(fmt.Sprintf("test:%d", idx), GSIM())
	d, _, err := c.Get(key, func() (*CompiledDesign, error) { return CompileDesign(g, GSIM()) })
	if err != nil {
		t.Fatal(err)
	}
	return d, key
}

// TestCacheEvictionUnderBudget is the governance acceptance check: a 3×
// overcommit workload (entries released as their sessions would close) keeps
// residency at or under the configured byte budget, while entries with live
// references are never evicted.
func TestCacheEvictionUnderBudget(t *testing.T) {
	c := NewCompileCache()
	d0, k0 := mustCompile(t, c, 0)
	unit := designCost(d0)
	if unit <= 0 {
		t.Fatal("design cost not positive")
	}
	budget := 2 * unit
	c.SetBudget(budget)
	c.Release(k0)

	// Overcommit ~3x the budget with released (unpinned) designs: the cache
	// must stay within budget by evicting cold entries.
	for i := 1; i < 8; i++ {
		_, k := mustCompile(t, c, i)
		c.Release(k)
		if used, _, _ := c.Governance(); used > budget {
			t.Fatalf("after design %d: used %d > budget %d", i, used, budget)
		}
	}
	if _, _, ev := c.Governance(); ev == 0 {
		t.Fatal("overcommit produced no evictions")
	}

	// Pinned designs are immune: hold references on several entries whose
	// joint cost exceeds the budget; the cache runs over budget rather than
	// evicting anything pinned.
	c2 := NewCompileCache()
	keys := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		_, k := mustCompile(t, c2, i)
		keys = append(keys, k)
	}
	c2.SetBudget(unit) // far below the pinned total
	if got := c2.Len(); got != 6 {
		t.Fatalf("pinned entries evicted: %d of 6 remain", got)
	}
	if _, _, ev := c2.Governance(); ev != 0 {
		t.Fatalf("%d evictions of refcounted designs", ev)
	}
	// Releasing the pins lets the cache settle back under budget.
	for _, k := range keys {
		c2.Release(k)
	}
	if used, _, _ := c2.Governance(); used > unit {
		t.Fatalf("after release: used %d > budget %d", used, unit)
	}
}

// TestCacheLRUOrder pins the recency policy: touching an entry saves it, the
// coldest unpinned entry goes first.
func TestCacheLRUOrder(t *testing.T) {
	c := NewCompileCache()
	dA, kA := mustCompile(t, c, 0)
	_, kB := mustCompile(t, c, 1)
	c.Release(kA)
	c.Release(kB)
	unit := designCost(dA)

	// Touch A so B is the LRU, then shrink the budget to one entry's cost:
	// B must be the victim.
	g := cacheDesign(t, 0)
	if _, hit, err := c.Get(kA, func() (*CompiledDesign, error) { return CompileDesign(g, GSIM()) }); err != nil || !hit {
		t.Fatalf("re-get A: hit=%v err=%v", hit, err)
	}
	c.Release(kA)
	c.SetBudget(unit + int64(unit)/2)

	gB := cacheDesign(t, 1)
	compiled := false
	if _, hit, err := c.Get(kB, func() (*CompiledDesign, error) {
		compiled = true
		return CompileDesign(gB, GSIM())
	}); err != nil || hit {
		t.Fatalf("get evicted B: hit=%v err=%v", hit, err)
	} else if !compiled {
		t.Fatal("B was served without recompiling — it should have been evicted")
	}
	c.Release(kB)
}

// TestCacheCompileFailFaultpoint pins the injected-compile-failure path: the
// error is cached (deterministic compile), holds no reference, and does not
// poison later distinct keys.
func TestCacheCompileFailFaultpoint(t *testing.T) {
	defer faultpoint.Reset()
	c := NewCompileCache()
	g := cacheDesign(t, 0)
	faultpoint.Arm(faultpoint.CompileFail, 1)
	_, _, err := c.Get("bad", func() (*CompiledDesign, error) { return CompileDesign(g, GSIM()) })
	if err == nil {
		t.Fatal("injected compile failure did not surface")
	}
	// Same key: cached error, compile not retried.
	_, hit, err2 := c.Get("bad", func() (*CompiledDesign, error) {
		t.Fatal("retried a deterministic failed compile")
		return nil, nil
	})
	if err2 == nil || !hit {
		t.Fatalf("cached failure: hit=%v err=%v", hit, err2)
	}
	// A different key compiles fine; the fault was one-shot.
	if _, k := mustCompile(t, c, 1); k == "" {
		t.Fatal("unexpected")
	}
}

// TestCacheCompilePanic: a compile that panics (the front end and every pass
// run inside it, on untrusted input) must be cached as an ordinary failed
// compile. Left to unwind through sync.Once it would leave an entry with
// neither design nor error — every later Get of the key nil-dereferences —
// and leak the pin taken before the compile.
func TestCacheCompilePanic(t *testing.T) {
	defer faultpoint.Reset()
	c := NewCompileCache()
	g := cacheDesign(t, 0)
	faultpoint.Arm(faultpoint.CompilePanic, 1)
	_, _, err := c.Get("boom", func() (*CompiledDesign, error) { return CompileDesign(g, GSIM()) })
	if err == nil || !strings.Contains(err.Error(), "panicked") ||
		!strings.Contains(err.Error(), `"boom"`) || !strings.Contains(err.Error(), faultpoint.CompilePanic) {
		t.Fatalf("panic not reported as an error naming the key and the panic value: %v", err)
	}
	// Same key: the same cached error, compile not retried.
	_, hit, err2 := c.Get("boom", func() (*CompiledDesign, error) {
		t.Fatal("retried a failed compile")
		return nil, nil
	})
	if !hit || err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("second Get: hit=%v err=%v, want the cached %v", hit, err2, err)
	}
	// Neither Get left a pin behind, so nothing exempts the entry from
	// eviction, and the cache goes on serving and evicting other designs.
	c.mu.Lock()
	refs := c.entries["boom"].refs
	c.mu.Unlock()
	if refs != 0 {
		t.Fatalf("failed entry still holds %d reference(s)", refs)
	}
	_, k := mustCompile(t, c, 1)
	c.Release(k)
	c.SetBudget(1)
	if used, _, ev := c.Governance(); used != 0 || ev != 1 {
		t.Fatalf("after the panic the cache did not evict normally: used=%d evictions=%d", used, ev)
	}
}

// TestCacheFailedEntriesBounded: failed compiles cost no bytes, so the byte
// budget never evicts them; a stream of distinct bad sources must not grow
// the map without bound — and capping it must not disturb the keys in use.
func TestCacheFailedEntriesBounded(t *testing.T) {
	c := NewCompileCache()
	live, liveKey := mustCompile(t, c, 0) // held for the whole test
	compiles := 0
	bad := func() (*CompiledDesign, error) {
		compiles++
		return nil, fmt.Errorf("no such design")
	}
	const flood = 10_000
	for i := range flood {
		if _, hit, err := c.Get(fmt.Sprintf("bad:%d", i), bad); err == nil || hit {
			t.Fatalf("bad key %d: hit=%v err=%v, want a miss and an error", i, hit, err)
		}
	}
	if got := c.Len(); got > maxFailedEntries+1 {
		t.Fatalf("%d entries after %d distinct failing keys, want <= %d failures + 1 live design", got, flood, maxFailedEntries)
	}

	// A recent failure is still cached (a hit, not recompiled); the oldest
	// was dropped, so asking again is a miss that compiles — and fails — anew.
	before := compiles
	if _, hit, err := c.Get(fmt.Sprintf("bad:%d", flood-1), bad); err == nil || !hit || compiles != before {
		t.Fatalf("recent failure: hit=%v err=%v, %d recompiles; want a cached error", hit, err, compiles-before)
	}
	if _, hit, err := c.Get("bad:0", bad); err == nil || hit || compiles != before+1 {
		t.Fatalf("dropped failure: hit=%v err=%v, %d recompiles; want a fresh miss", hit, err, compiles-before)
	}

	// The live key counts as before: one miss at its compile, hits since.
	d, hit, err := c.Get(liveKey, func() (*CompiledDesign, error) {
		t.Error("live design recompiled")
		return nil, fmt.Errorf("recompiled")
	})
	if err != nil || !hit || d != live {
		t.Fatalf("live key after the flood: hit=%v err=%v same=%v", hit, err, d == live)
	}
	if hits, misses := c.Stats(); hits != 2 || misses != flood+2 {
		t.Fatalf("stats: %d hits / %d misses, want 2 / %d", hits, misses, flood+2)
	}
}
