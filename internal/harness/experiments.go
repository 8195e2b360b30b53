package harness

import (
	"fmt"
	"math"
	"time"

	"gsim/internal/core"
	"gsim/internal/engine"
	"gsim/internal/gen"
	"gsim/internal/partition"
	"gsim/internal/passes"
)

// Budget controls how long each measurement runs. The defaults keep the
// whole suite in CI-scale time; -full in cmd/gsim-bench raises them.
type Budget struct {
	WarmupCycles int
	TimedCycles  int
}

// DefaultBudget is sized so every experiment completes in minutes.
func DefaultBudget() Budget { return Budget{WarmupCycles: 30, TimedCycles: 150} }

// QuickBudget is for tests.
func QuickBudget() Budget { return Budget{WarmupCycles: 5, TimedCycles: 25} }

// measure runs the driver+engine for the budget and returns simulated Hz.
func measure(sys *core.System, drive Driver, b Budget) float64 {
	for c := 0; c < b.WarmupCycles; c++ {
		drive(sys.Sim, c)
		sys.Sim.Step()
	}
	start := time.Now()
	for c := 0; c < b.TimedCycles; c++ {
		drive(sys.Sim, b.WarmupCycles+c)
		sys.Sim.Step()
	}
	el := time.Since(start)
	if el <= 0 {
		return 0
	}
	return float64(b.TimedCycles) / el.Seconds()
}

// runConfig builds and measures one (design, workload, config) cell.
func runConfig(d Design, workload string, cfg core.Config, b Budget) (float64, *core.System, error) {
	sys, drive, err := BuildSystem(d, workload, cfg)
	if err != nil {
		return 0, nil, err
	}
	defer sys.Close()
	hz := measure(sys, drive, b)
	return hz, sys, nil
}

// --- Table I: baseline full-cycle speed vs design scale ---

// Table1Row is one design's baseline datapoint.
type Table1Row struct {
	Design  string
	Nodes   int
	Edges   int
	SpeedHz float64
}

// Table1 reproduces Table I: single-threaded full-cycle ("Verilator") speed
// for each design, with IR node and edge counts.
func Table1(designs []Design, b Budget) ([]Table1Row, error) {
	var rows []Table1Row
	for _, d := range designs {
		g, mk, err := d.Build(WorkloadLinux)
		if err != nil {
			return nil, err
		}
		// The node and edge columns count the paper's form, one operation
		// per node; the build compiles the graph as elaborated.
		paper := g.Clone()
		passes.Normalize(paper)
		stats := paper.ComputeStats()
		cfg := core.Verilator()
		sys, err := core.Build(g, cfg)
		if err != nil {
			return nil, err
		}
		hz := measure(sys, mk(sys.Graph), b)
		sys.Close()
		rows = append(rows, Table1Row{Design: d.Name, Nodes: stats.Nodes, Edges: stats.Edges, SpeedHz: hz})
	}
	return rows, nil
}

// --- Figure 6: overall performance ---

// Fig6Cell is one bar: a simulator's speedup over single-thread Verilator.
type Fig6Cell struct {
	Design    string
	Workload  string
	Simulator string
	SpeedHz   float64
	Speedup   float64
}

// Fig6Configs lists the simulators in the figure's legend order. Only
// Verilator is swept over worker counts, as in the paper; GSIM runs one.
func Fig6Configs() []core.Config {
	return []core.Config{
		core.Verilator(),
		core.VerilatorMT(2),
		core.VerilatorMT(4),
		core.VerilatorMT(8),
		core.VerilatorMT(16),
		core.Essent(),
		core.Arcilator(),
		core.GSIM(),
	}
}

// Fig6 reproduces the overall-performance figure: every simulator on every
// design × workload, normalized to single-thread Verilator.
func Fig6(designs []Design, b Budget) ([]Fig6Cell, error) {
	var cells []Fig6Cell
	for _, d := range designs {
		for _, wl := range []string{WorkloadLinux, WorkloadCoreMark} {
			base := 0.0
			for _, cfg := range Fig6Configs() {
				hz, _, err := runConfig(d, wl, cfg, b)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %v", d.Name, wl, cfg.Name, err)
				}
				if cfg.Name == "verilator" {
					base = hz
				}
				sp := 0.0
				if base > 0 {
					sp = hz / base
				}
				cells = append(cells, Fig6Cell{
					Design: d.Name, Workload: wl, Simulator: cfg.Name,
					SpeedHz: hz, Speedup: sp,
				})
			}
		}
	}
	return cells, nil
}

// --- Figure 7: SPEC CPU2006 checkpoints ---

// Fig7Row is one checkpoint's speedups.
type Fig7Row struct {
	Checkpoint string
	Vs1T       float64 // GSIM vs Verilator 1T
	V4T        float64 // Verilator-4T vs 1T
	V8T        float64 // Verilator-8T vs 1T
}

// CheckpointNames mirrors the benchmarks in the paper's Fig. 7.
var CheckpointNames = []string{
	"perlbench_diffmail", "bzip2_chicken", "mcf", "gobmk_13x13",
	"hmmer_retro", "libquantum", "h264ref_sss", "omnetpp",
	"xalancbmk", "bwaves", "GemsFDTD", "lbm",
}

// Fig7 reproduces the checkpoint study on the largest design: each named
// checkpoint is a stimulus segment with its own working set; speeds are
// normalized to single-thread Verilator per checkpoint.
func Fig7(p gen.Profile, b Budget) ([]Fig7Row, error) {
	g := gen.BuildProfile(p)
	stim := func(g2 *core.System, seed int64) Driver {
		n := g2.Graph.FindNode("stim")
		next := checkpointStimulus(p, seed)
		return func(sim engine.Sim, cycle int) { sim.Poke(n.ID, next(cycle)) }
	}
	var rows []Fig7Row
	for i, name := range CheckpointNames {
		seed := int64(1000 + i*17)
		speed := map[string]float64{}
		for _, cfg := range []core.Config{core.Verilator(), core.VerilatorMT(4), core.VerilatorMT(8), core.GSIM()} {
			sys, err := core.Build(g, cfg)
			if err != nil {
				return nil, err
			}
			speed[cfg.Name] = measure(sys, stim(sys, seed), b)
			sys.Close()
		}
		base := speed["verilator"]
		rows = append(rows, Fig7Row{
			Checkpoint: name,
			Vs1T:       speed["gsim"] / base,
			V4T:        speed["verilator-4T"] / base,
			V8T:        speed["verilator-8T"] / base,
		})
	}
	return rows, nil
}

// --- Figure 8: per-technique breakdown ---

// Fig8Step is one incremental technique measurement.
type Fig8Step struct {
	Design    string
	Technique string
	SpeedHz   float64
	Log10Gain float64 // log10(P_i / P_{i-1}), the bar height in the figure
}

// fig8Stages applies the paper's techniques cumulatively, in the legend
// order of Fig. 8. The baseline is the essential-signal engine with
// single-node supernodes and no graph optimization (Listing 2).
func fig8Stages() []struct {
	Name string
	Cfg  func() core.Config
} {
	baseline := func() core.Config {
		return core.Config{
			Engine:    core.EngineActivity,
			Partition: partition.None,
			Activity:  engine.ActivityConfig{Activation: engine.ActBranch},
		}
	}
	stage := func(mod func(*core.Config)) func() core.Config {
		return func() core.Config {
			c := baseline()
			mod(&c)
			return c
		}
	}
	// Each stage includes all previous ones.
	withSimplify := func(c *core.Config) { c.Opt.Simplify = true }
	withRedundant := func(c *core.Config) { withSimplify(c); c.Opt.Redundant = true }
	withInline := func(c *core.Config) { withRedundant(c); c.Opt.Inline = true }
	withSupernode := func(c *core.Config) { withInline(c); c.Partition = partition.Enhanced }
	withExtract := func(c *core.Config) { withSupernode(c); c.Opt.Extract = true }
	withReset := func(c *core.Config) { withExtract(c); c.Opt.ResetOpt = true }
	withMultiBit := func(c *core.Config) { withReset(c); c.Activity.MultiBitCheck = true }
	withActOpt := func(c *core.Config) { withMultiBit(c); c.Activity.Activation = engine.ActCostModel }
	withBitSplit := func(c *core.Config) { withActOpt(c); c.Opt.BitSplit = true }

	return []struct {
		Name string
		Cfg  func() core.Config
	}{
		{"baseline", baseline},
		{"expression simplification", stage(withSimplify)},
		{"redundant node elimination", stage(withRedundant)},
		{"node inline", stage(withInline)},
		{"supernode", stage(withSupernode)},
		{"node extraction", stage(withExtract)},
		{"reset handling optimization", stage(withReset)},
		{"checking multiple active bits", stage(withMultiBit)},
		{"activation overhead optimization", stage(withActOpt)},
		{"node splitting at bit level", stage(withBitSplit)},
	}
}

// Fig8 reproduces the performance breakdown: techniques applied
// incrementally, reporting log10 speedup per step.
func Fig8(designs []Design, b Budget) ([]Fig8Step, error) {
	var steps []Fig8Step
	for _, d := range designs {
		prev := 0.0
		for _, st := range fig8Stages() {
			cfg := st.Cfg()
			cfg.Name = st.Name
			hz, _, err := runConfig(d, WorkloadCoreMark, cfg, b)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %v", d.Name, st.Name, err)
			}
			gain := 0.0
			if prev > 0 && hz > 0 {
				gain = log10(hz / prev)
			}
			steps = append(steps, Fig8Step{Design: d.Name, Technique: st.Name, SpeedHz: hz, Log10Gain: gain})
			prev = hz
		}
	}
	return steps, nil
}

// --- Figure 9: maximum supernode size sweep ---

// Fig9Point is one (design, size) speed sample.
type Fig9Point struct {
	Design  string
	MaxSize int
	SpeedHz float64
	Speedup float64 // normalized to the design's size-32 point
}

// Fig9Sizes spans the paper's 0-400 sweep, with extra resolution at the
// small end where this implementation's optimum sits: interpreted kernel
// evaluation costs more per node than emitted C++, which shifts the optimum
// below the paper's 20-50.
var Fig9Sizes = []int{1, 2, 4, 6, 8, 12, 16, 32, 50, 100, 150, 200, 300, 400}

// Fig9 reproduces the supernode-size study: GSIM with every optimization
// on, sweeping the maximum supernode size.
func Fig9(designs []Design, sizes []int, b Budget) ([]Fig9Point, error) {
	var pts []Fig9Point
	for _, d := range designs {
		speeds := make([]float64, len(sizes))
		for i, size := range sizes {
			cfg := core.GSIM()
			cfg.MaxSupernode = size
			hz, _, err := runConfig(d, WorkloadCoreMark, cfg, b)
			if err != nil {
				return nil, err
			}
			speeds[i] = hz
		}
		// Normalize to the size-32-nearest point (the paper normalizes
		// within each curve; size 32 sits mid-sweep for both).
		base := speeds[0]
		for i, size := range sizes {
			if size <= 32 {
				base = speeds[i]
			}
		}
		for i, size := range sizes {
			pts = append(pts, Fig9Point{Design: d.Name, MaxSize: size, SpeedHz: speeds[i], Speedup: speeds[i] / base})
		}
	}
	return pts, nil
}

// --- Table III: partitioning algorithm comparison ---

// Table3Row is one partitioning algorithm's metrics.
type Table3Row struct {
	Algorithm   string
	PartitionMS float64
	Supernodes  int
	Activations uint64
	ActiveNodes uint64
	SpeedHz     float64
}

// Table3 reproduces the partitioning comparison: each algorithm on the
// BOOM-scale design running the CoreMark workload, all other optimizations
// disabled (as in the paper).
func Table3(d Design, b Budget) ([]Table3Row, error) {
	// Each algorithm runs under its own optimal size parameter, as the paper
	// does ("under their own optimal parameters"): the enhanced partitioner's
	// optimum sits lower here because interpreted node evaluation is costlier
	// relative to bit examination than the paper's emitted C++ (see Fig. 9).
	algos := []struct {
		name string
		kind partition.Kind
		size int
	}{
		{"None", partition.None, 1},
		{"Kernighan", partition.Kernighan, 16},
		{"MFFC-based", partition.MFFC, 32},
		{"GSIM", partition.Enhanced, 4},
	}
	var rows []Table3Row
	for _, a := range algos {
		cfg := core.Config{
			Name:         "part-" + a.name,
			Engine:       core.EngineActivity,
			Partition:    a.kind,
			MaxSupernode: a.size,
			Activity:     engine.ActivityConfig{Activation: engine.ActBranch},
		}
		sys, drive, err := BuildSystem(d, WorkloadCoreMark, cfg)
		if err != nil {
			return nil, err
		}
		hz := measure(sys, drive, b)
		st := sys.Sim.Stats()
		cycles := st.Cycles
		rows = append(rows, Table3Row{
			Algorithm:   a.name,
			PartitionMS: float64(sys.Part.BuildTime.Microseconds()) / 1000,
			Supernodes:  sys.Part.Count(),
			Activations: st.Activations / cycles,
			ActiveNodes: st.NodeEvals / cycles,
			SpeedHz:     hz,
		})
		sys.Close()
	}
	return rows, nil
}

// --- Table IV: resource usage ---

// Table4Row is one (design, simulator) resource measurement.
type Table4Row struct {
	Design     string
	Simulator  string
	EmitTimeMS float64
	CodeBytes  int
	DataBytes  int
}

// Table4 reproduces the resource comparison: emission time (full build:
// passes + compile, including the engine's bound chains in kernel mode), code size
// (compiled instruction bytes), and data size (state image bytes, memories
// excluded) per design and simulator.
func Table4(designs []Design, b Budget) ([]Table4Row, error) {
	cfgs := []core.Config{core.Verilator(), core.Essent(), core.Arcilator(), core.GSIM()}
	var rows []Table4Row
	for _, d := range designs {
		for _, cfg := range cfgs {
			g, _, err := d.Build(WorkloadLinux)
			if err != nil {
				return nil, err
			}
			sys, err := core.Build(g, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table4Row{
				Design:     d.Name,
				Simulator:  cfg.Name,
				EmitTimeMS: float64(sys.BuildTime.Microseconds()) / 1000,
				CodeBytes:  sys.Prog.CodeBytes(),
				DataBytes:  sys.Prog.DataBytes(),
			})
			sys.Close()
		}
	}
	return rows, nil
}

func log10(x float64) float64 { return math.Log10(x) }
