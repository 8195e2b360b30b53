// Package core is GSIM's compilation driver and public entry point: it takes
// an elaborated ir.Graph (from the FIRRTL frontend or a programmatic
// builder), runs the selected optimization pipeline, compiles the result to
// an executable program, builds a supernode partition, and instantiates a
// simulation engine.
//
// Configurations for every simulator the paper compares are provided as
// presets (Verilator single- and multi-threaded, ESSENT, Arcilator, GSIM).
package core

import (
	"fmt"
	"time"

	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/ir"
	"gsim/internal/partition"
	"gsim/internal/passes"
)

// EngineKind selects the simulation model; Config.Threads picks how many
// workers run it.
type EngineKind uint8

// Engine kinds.
const (
	EngineFullCycle EngineKind = iota
	EngineActivity
)

var engineNames = [...]string{"fullcycle", "activity"}

// String returns the engine name.
func (k EngineKind) String() string { return engineNames[k] }

// Config selects the full simulator configuration: which graph optimizations
// run, how supernodes are built, and which engine executes.
type Config struct {
	Name string // preset label for reports

	Opt passes.Options

	Engine  EngineKind
	Threads int // worker count; 0 and 1 both mean one worker (see workers)

	// Eval is the build mode of the plan's stream. Engines run every mode
	// through one path; only the kernels differ. The zero value, the fused
	// kernels, is the product and every preset's. Fusion off
	// (engine.EvalKernelNoFuse) and the reference interpreter
	// (engine.EvalInterp) are for tests, go-bench rows and diagnostics, and
	// no session spec or command-line flag selects them.
	Eval engine.EvalMode

	// Activity-engine knobs.
	Partition    partition.Kind
	MaxSupernode int // paper's max supernode size parameter (Fig. 9)
	Activity     engine.ActivityConfig
}

// DefaultMaxSupernode is the supernode size cap used when unset, counted in
// nodes (paper Fig. 9, whose optima for emitted C++ are 20-50). A supernode is
// re-evaluated whole when any member is activated, and with interpreted
// kernels that costs more than the activation bookkeeping a larger cap saves,
// so the optimum sits lower here, on a flat top: on rocket-like gsim-bench
// -exp fig9 cannot tell the caps from 6 to 16 apart, and in alternating pairs
// of the repository benchmark 6 beat 4 on both rocket workloads (9 of 10
// each), 8 beat 4 in 7 of 10, 16 did not (README "Benchmarks" has the
// tables). The unit matters: since node extraction
// counts references after nesting, a node carries about twice the
// instructions it did when 4 was chosen.
const DefaultMaxSupernode = 6

// System is a compiled, runnable simulator for one design.
type System struct {
	Config Config
	Graph  *ir.Graph // the optimized graph, topologically numbered and released (see CompiledDesign.Graph)
	Prog   *emit.Program
	Part   *partition.Result // nil for full-cycle engines
	Sim    engine.Compiled

	PassResult passes.Result
	PassTime   time.Duration
	BuildTime  time.Duration // total: passes + sort + emit + partition + engine
}

// Build compiles a fresh simulator from the input graph. The input graph is
// cloned first and never mutated, so one elaborated design can be built many
// ways (as the experiments do). Build is CompileDesign + NewSim in one call;
// long-lived services that amortize the compile across many sessions use
// those two halves directly (with a CompileCache between them).
func Build(g *ir.Graph, cfg Config) (*System, error) {
	start := time.Now()
	d, err := CompileDesign(g, cfg)
	if err != nil {
		return nil, err
	}
	sim, err := d.NewSim(cfg)
	if err != nil {
		return nil, err
	}
	sys := &System{
		Config:     d.Config,
		Graph:      d.Graph,
		Prog:       d.Prog,
		Part:       d.Part,
		Sim:        sim,
		PassResult: d.PassResult,
		PassTime:   d.PassTime,
		BuildTime:  time.Since(start),
	}
	return sys, nil
}

// Close releases engine resources (worker goroutines).
func (s *System) Close() { s.Sim.Close() }

// Node returns the optimized graph's node with the given name, or nil. Note
// that optimization may remove or rename internal nodes; inputs and outputs
// always survive.
func (s *System) Node(name string) *ir.Node { return s.Graph.FindNode(name) }

// --- Presets: the simulators compared in the paper ---

// Verilator models single-threaded Verilator: full-cycle evaluation with
// expression optimization and statement fusion (Verilator -O3 inlines
// aggressively when emitting C++).
func Verilator() Config {
	opt := passes.Basic()
	opt.Inline = true
	return Config{Name: "verilator", Opt: opt, Engine: EngineFullCycle}
}

// VerilatorMT models Verilator --threads N: the full-cycle engine with N
// workers. VerilatorMT(1) builds exactly what Verilator() does.
func VerilatorMT(threads int) Config {
	cfg := Verilator()
	cfg.Name = fmt.Sprintf("verilator-%dT", threads)
	cfg.Threads = threads
	return cfg
}

// Arcilator models the CIRCT/MLIR simulator: aggressive expression-level
// optimization, still evaluating every signal every cycle.
func Arcilator() Config {
	return Config{
		Name: "arcilator",
		Opt: passes.Options{
			Simplify: true, Redundant: true, Inline: true, Extract: true,
		},
		Engine: EngineFullCycle,
	}
}

// Essent models ESSENT: essential-signal simulation with MFFC partitions and
// unconditionally branchless activation, plus basic expression optimization.
func Essent() Config {
	return Config{
		Name: "essent",
		Opt: passes.Options{
			Simplify: true, Redundant: true, Inline: true,
		},
		Engine:    EngineActivity,
		Partition: partition.MFFC,
		Activity: engine.ActivityConfig{
			MultiBitCheck: false,
			Activation:    engine.ActBranchless,
		},
	}
}

// GSIM is the paper's simulator: every optimization at all three levels.
func GSIM() Config {
	return Config{
		Name:      "gsim",
		Opt:       passes.All(),
		Engine:    EngineActivity,
		Partition: partition.Enhanced,
		Activity: engine.ActivityConfig{
			MultiBitCheck: true,
			Activation:    engine.ActCostModel,
		},
	}
}

// GSIMMT is the multi-threaded GSIM: the essential-signal engine sharding
// supernodes across N persistent workers with level barriers. GSIMMT(1)
// builds exactly what GSIM() does.
func GSIMMT(threads int) Config {
	cfg := GSIM()
	cfg.Name = fmt.Sprintf("gsim-%dT", threads)
	cfg.Threads = threads
	return cfg
}

// workers is a configuration's worker count: Threads, with every value
// below one meaning one worker.
func (c Config) workers() int { return max(c.Threads, 1) }

// normalized resolves the defaults CompileDesign and CacheKey apply: the
// supernode cap and the worker count.
func (c Config) normalized() Config {
	if c.MaxSupernode <= 0 {
		c.MaxSupernode = DefaultMaxSupernode
	}
	c.Threads = c.workers()
	return c
}

// mismatch names the first engine-shaping field in which o differs from c
// (both normalized), or returns "" when an engine of c serves o: the fields
// CacheKey folds in, optimization options aside.
func (c Config) mismatch(o Config) string {
	switch {
	case c.Engine != o.Engine:
		return "engine"
	case c.Eval != o.Eval:
		return "eval mode"
	case c.Threads != o.Threads:
		return "worker count"
	case c.Activity != o.Activity:
		return "activation"
	case c.Partition != o.Partition:
		return "partitioner"
	case c.MaxSupernode != o.MaxSupernode:
		return "supernode cap"
	}
	return ""
}
