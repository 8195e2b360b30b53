// Compiled-design caching: the compile-once/simulate-many split behind
// simulation-as-a-service. GSIM's whole premise is that an expensive build
// (graph passes, supernode partitioning, kernel-pipeline compilation) buys
// fast cycles; this file makes the expensive half a durable, shareable
// artifact. CompileDesign produces an immutable CompiledDesign, engine plan
// included; NewSim stamps out per-session engines over it (each engine owns
// only its mutable state); CompileCache deduplicates concurrent compiles
// under singleflight so N sessions of one design pay for one build.
package core

import (
	"fmt"
	"sync"
	"time"

	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/faultpoint"
	"gsim/internal/ir"
	"gsim/internal/partition"
	"gsim/internal/passes"
)

// CompiledDesign is the immutable output of the expensive build half:
// optimized graph, compiled program, supernode partition, and the engine
// plan — kernel streams, slot layout, activation tables — that every engine
// of the design reads. Safe to share across concurrent sessions: nothing
// here is written after CompileDesign returns.
type CompiledDesign struct {
	Config Config // the normalized configuration it was compiled under
	// Graph is the optimized graph, released (ir.Graph.ReleaseExprs): its
	// nodes keep their IDs, names, kinds, widths, reset signals and initial
	// values, and its memories stay, which is all Peek, Poke, FindNode,
	// tracing and snapshots read. Its expression trees are gone; analysis
	// and extra plans start from Optimize.
	Graph *ir.Graph
	Prog  *emit.Program
	Part  *partition.Result // nil for full-cycle engines
	plan  engine.Plan

	PassResult  passes.Result
	PassTime    time.Duration // Optimize: clone, passes, sort, validate
	CompileTime time.Duration // Optimize + emit + partition + plan
}

// Optimize runs the front half of CompileDesign: clone, optimize, topo-sort,
// validate. The passes take the expression trees as firrtl.Load or a builder
// wrote them, not split into one-op nodes (passes.Normalize), so inlining
// decides only the nodes the input has and the simplifier sees each tree
// whole. The input graph is never mutated. The
// result keeps its expression trees, so it is what analysis (statistics,
// levelization, engine.Reference) and plans built outside CompileDesign
// start from: emit.Compile of it has the design hash CompileDesign's program
// has. A released graph is refused.
func Optimize(g *ir.Graph, opt passes.Options) (*ir.Graph, passes.Result, error) {
	if g.Released() {
		return nil, passes.Result{}, fmt.Errorf("core: %w", ir.ErrReleased)
	}
	work := g.Clone()
	res := passes.Run(work, opt)
	if err := work.SortTopological(); err != nil {
		return nil, res, fmt.Errorf("core: %v", err)
	}
	// The sort just ordered every node, which is Validate's acyclicity check.
	if err := work.ValidateNodes(); err != nil {
		return nil, res, fmt.Errorf("core: optimized graph invalid: %v", err)
	}
	return work, res, nil
}

// CompileDesign runs the compile half of Build: Optimize, emit, partition,
// plan, and last, release the graph's expression trees, which nothing that
// simulates reads. The result is immutable and reusable by any number of
// NewSim calls. An essential-signal configuration with more than one worker
// is refused: that engine runs one. A program the stream builder refuses (an
// instruction outside the state image: only a compiler bug makes one) fails
// the compile instead of the process.
func CompileDesign(g *ir.Graph, cfg Config) (*CompiledDesign, error) {
	if faultpoint.Hit(faultpoint.CompileFail) {
		return nil, fmt.Errorf("core: injected compile failure (faultpoint %s)", faultpoint.CompileFail)
	}
	if faultpoint.Hit(faultpoint.CompilePanic) {
		panic(fmt.Sprintf("core: injected compile panic (faultpoint %s)", faultpoint.CompilePanic))
	}
	start := time.Now()
	cfg = cfg.normalized()
	if cfg.Engine == EngineActivity && cfg.Threads > 1 {
		return nil, fmt.Errorf(`core: the field "threads" is %d, but the essential-signal engine runs one worker`, cfg.Threads)
	}
	work, passRes, err := Optimize(g, cfg.Opt)
	passTime := time.Since(start)
	if err != nil {
		return nil, err
	}
	prog, err := emit.Compile(work)
	if err != nil {
		return nil, err
	}

	d := &CompiledDesign{
		Config:     cfg,
		Graph:      work,
		Prog:       prog,
		PassResult: passRes,
		PassTime:   passTime,
	}
	if cfg.Engine == EngineActivity {
		d.Part = partition.Build(work, cfg.Partition, cfg.MaxSupernode)
	}
	if err := d.buildPlan(); err != nil {
		return nil, err
	}
	work.ReleaseExprs()
	d.CompileTime = time.Since(start)
	return d, nil
}

// buildPlan builds the design's engine plan, turning the stream builder's refusal
// of a corrupt program into an error.
func (d *CompiledDesign) buildPlan() (err error) {
	cfg := d.Config
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: planning the %s engine panicked: %v", cfg.Engine, r)
		}
	}()
	switch cfg.Engine {
	case EngineFullCycle:
		d.plan = engine.PlanFullCycle(d.Prog, cfg.Threads, cfg.Eval)
	case EngineActivity:
		d.plan = engine.PlanActivity(d.Prog, d.Part, cfg.Activity, cfg.Eval)
	default:
		return fmt.Errorf("core: unknown engine %d", cfg.Engine)
	}
	return nil
}

// Plan returns the design's engine plan, read-only: an
// *engine.FullCyclePlan or an *engine.ActivityPlan.
func (d *CompiledDesign) Plan() engine.Plan { return d.plan }

// DesignHash returns the compiled program's identity hash (hex) — the
// snapshot compatibility key.
func (d *CompiledDesign) DesignHash() string { return d.Prog.DesignHashString() }

// NewSim instantiates one engine over the design's plan. It only allocates:
// the engine's machine, active bits, shadows and worker scratch. cfg must be
// the design's own configuration — every field CacheKey folds in but the
// optimization options (engine, eval mode, workers, activation knobs,
// partitioner, supernode cap), since the plan was built for exactly those;
// a mismatch is refused with an error naming the first differing field.
// Engines step fully concurrently: each owns its state, and the plan and
// Program are read-only.
func (d *CompiledDesign) NewSim(cfg Config) (engine.Compiled, error) {
	if field := d.Config.mismatch(cfg.normalized()); field != "" {
		return nil, fmt.Errorf("core: the session's %s differs from the one design %q was compiled for", field, d.Config.Name)
	}
	return d.plan.NewEngine(), nil
}

// CacheKey derives the compile-cache key for a design source identity (the
// caller supplies a content hash of the elaborated input, e.g. a FIRRTL text
// hash) under a configuration. Every knob that can change the compiled
// artifact or the per-session engine shape is folded in — optimization
// options, engine, eval mode, threads, partitioner, supernode cap — so
// sessions share a cache entry exactly when their builds would be
// interchangeable. Unset and one-worker thread counts are the same build.
func CacheKey(sourceHash string, cfg Config) string {
	cfg = cfg.normalized()
	return fmt.Sprintf("%s|opt=%+v|engine=%s|eval=%s|threads=%d|part=%d|maxsup=%d|act=%d/%v",
		sourceHash, cfg.Opt, cfg.Engine, cfg.Eval, cfg.Threads,
		cfg.Partition, cfg.MaxSupernode,
		cfg.Activity.Activation, cfg.Activity.MultiBitCheck)
}

// CompileCache deduplicates design compilation: one entry per CacheKey,
// compiled exactly once under singleflight (concurrent requests for the same
// key block on the first compile instead of repeating it). Failed compiles
// are cached too: compilation is deterministic, so retrying the same key
// cannot succeed.
//
// A failed entry costs no bytes, so the byte budget never reaches it; failed
// entries nobody holds are instead capped at maxFailedEntries, least recently
// used first, so a stream of distinct bad sources cannot grow the map without
// bound. A dropped failure is simply recompiled (and fails again) on its next
// request.
//
// Residency is governed by a byte budget: each entry's cost is its compiled
// code, state image, memory images, plan and released graph (designCost),
// and when the cached total exceeds SetBudget's limit, least-recently-used
// entries are evicted — but only unreferenced ones. Get acquires a reference
// (released with Release), so a design with live sessions is pinned no
// matter how cold its key is; the cache may run over budget while everything
// resident is pinned, and settles back under it as references drop. A zero
// budget (the default) disables eviction entirely.
type CompileCache struct {
	mu        sync.Mutex
	entries   map[string]*cacheEntry
	budget    int64 // bytes; 0 = unlimited
	used      int64 // accounted cost of resident entries
	seq       uint64
	hits      uint64
	misses    uint64
	evictions uint64
	m         *CacheMetrics // nil = uninstrumented
}

type cacheEntry struct {
	once   sync.Once
	design *CompiledDesign
	err    error

	// Governance fields, guarded by the cache mutex.
	refs      int    // live Get acquisitions not yet Released
	cost      int64  // designCost, known once compile completes
	accounted bool   // cost already folded into used
	failed    bool   // compile finished with an error (err itself is read outside the mutex)
	lastUse   uint64 // recency stamp for LRU
	evicted   bool   // detached from the map (late Release must not re-count)
}

// maxFailedEntries caps the cached compile failures no caller is waiting on.
const maxFailedEntries = 64

// NewCompileCache returns an empty cache with no byte budget (no eviction).
func NewCompileCache() *CompileCache {
	return &CompileCache{entries: map[string]*cacheEntry{}}
}

// SetBudget sets the resident-byte budget and immediately evicts down to it.
// budget <= 0 disables eviction.
func (c *CompileCache) SetBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	c.evictLocked()
	c.syncGaugesLocked()
}

// SetObs attaches the metrics bundle; subsequent cache activity is credited
// to it and the residency gauges snap to the current state.
func (c *CompileCache) SetObs(m *CacheMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = m
	c.syncGaugesLocked()
}

// syncGaugesLocked mirrors the governance view into the gauges. Caller holds
// c.mu.
func (c *CompileCache) syncGaugesLocked() {
	if c.m == nil {
		return
	}
	c.m.ResidentBytes.Set(float64(c.used))
	c.m.Designs.Set(float64(len(c.entries)))
}

// Footprint is what a compiled design keeps resident, in bytes, by part.
type Footprint struct {
	Code, Data, Mem int // program: instructions, initial persistent words, memory images
	Plan            int // engine plan: streams, slot and activation tables
	Graph           int // released graph: nodes, names, initial values, memories
}

// Total sums the parts.
func (f Footprint) Total() int { return f.Code + f.Data + f.Mem + f.Plan + f.Graph }

// Footprint reports the bytes the design keeps resident, by part.
func (d *CompiledDesign) Footprint() Footprint {
	return Footprint{
		Code:  d.Prog.CodeBytes(),
		Data:  8 * len(d.Prog.Init),
		Mem:   d.Prog.MemBytes(),
		Plan:  d.plan.Bytes(),
		Graph: d.Graph.ResidentBytes(),
	}
}

// designCost is an entry's residency weight: the bytes that stay alive as
// long as the compiled design does. Code, the engine plan and the released
// graph's nodes dominate for logic-heavy designs (rocket-like under GSIM:
// 2.6, 2.5 and 2.5 MB), the initial state image and memory images for
// state-heavy ones.
func designCost(d *CompiledDesign) int64 { return int64(d.Footprint().Total()) }

// Get returns the design for key, invoking compile at most once per key
// across all concurrent callers. The bool reports whether the entry already
// existed (a cache hit — the caller shares a previous compile). On success
// the caller holds a reference pinning the entry against eviction; it must
// call Release(key) when the design is no longer in use (session close).
// Failed compiles — a panicking compile included — return the cached error
// and hold no reference.
func (c *CompileCache) Get(key string, compile func() (*CompiledDesign, error)) (*CompiledDesign, bool, error) {
	c.mu.Lock()
	m := c.m
	e, hit := c.entries[key]
	if !hit {
		e = &cacheEntry{}
		c.entries[key] = e
		c.misses++
		if m != nil {
			m.Misses.Inc()
		}
	} else {
		c.hits++
		if m != nil {
			m.Hits.Inc()
		}
	}
	e.refs++ // pin through the compile so a concurrent eviction can't drop it
	c.seq++
	e.lastUse = c.seq
	c.mu.Unlock()

	e.once.Do(func() {
		start := time.Now()
		// compile runs the front end on untrusted bytes and every pass on
		// what it yields. A panic in there is cached like any other failed
		// compile: left to unwind, it would spend the Once with neither a
		// design nor an error and leak the pin taken above.
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("core: compile of %q panicked: %v", key, r)
			}
			if m != nil {
				m.CompileSeconds.Observe(time.Since(start).Seconds())
			}
		}()
		e.design, e.err = compile()
	})

	c.mu.Lock()
	defer c.mu.Unlock()
	if e.err != nil {
		e.refs--
		e.failed = true
		c.trimFailedLocked()
		c.syncGaugesLocked()
		return nil, hit, e.err
	}
	if !e.accounted {
		e.accounted = true
		e.cost = designCost(e.design)
		c.used += e.cost
	}
	c.evictLocked()
	c.syncGaugesLocked()
	return e.design, hit, nil
}

// Release drops one reference acquired by Get, unpinning the entry once no
// callers remain and evicting if the cache is over budget.
func (c *CompileCache) Release(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.refs <= 0 {
		return
	}
	e.refs--
	c.evictLocked()
	c.syncGaugesLocked()
}

// lruLocked returns the least recently used entry that eligible accepts, and
// how many entries it accepted. Caller holds c.mu.
func (c *CompileCache) lruLocked(eligible func(*cacheEntry) bool) (key string, victim *cacheEntry, n int) {
	for k, e := range c.entries {
		if !eligible(e) {
			continue
		}
		n++
		if victim == nil || e.lastUse < victim.lastUse {
			key, victim = k, e
		}
	}
	return key, victim, n
}

// evictLocked drops least-recently-used unreferenced entries until the
// resident total fits the budget. Pinned entries (live references) never
// evict, so the cache can legitimately sit over budget while every resident
// design has sessions on it.
func (c *CompileCache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget {
		key, victim, _ := c.lruLocked(func(e *cacheEntry) bool {
			return e.refs == 0 && e.accounted && e.cost != 0
		})
		if victim == nil {
			return
		}
		delete(c.entries, key)
		victim.evicted = true
		c.used -= victim.cost
		c.evictions++
		if c.m != nil {
			c.m.Evictions.Inc()
		}
	}
}

// trimFailedLocked drops least-recently-used unreferenced failed entries
// beyond maxFailedEntries. Get adds at most one per call, so this scans the
// map (the cap plus the live designs) once or twice.
func (c *CompileCache) trimFailedLocked() {
	for {
		key, victim, idle := c.lruLocked(func(e *cacheEntry) bool { return e.failed && e.refs == 0 })
		if idle <= maxFailedEntries {
			return
		}
		delete(c.entries, key)
		victim.evicted = true
	}
}

// Stats reports cumulative lookups: hits (entry existed) and misses (this
// lookup created the entry and ran the compile).
func (c *CompileCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Governance reports the residency picture: accounted resident bytes, the
// configured budget (0 = unlimited), and lifetime evictions.
func (c *CompileCache) Governance() (usedBytes, budgetBytes int64, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used, c.budget, c.evictions
}

// Len returns the number of cached designs (including failed compiles).
func (c *CompileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
