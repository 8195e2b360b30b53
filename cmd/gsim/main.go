// Command gsim compiles a FIRRTL design and simulates it.
//
// Usage:
//
//	gsim [flags] design.fir
//
//	-engine gsim|verilator|essent|arcilator   simulator preset (default gsim)
//	-threads N                                multi-threaded engine: gsim -> GSIMMT
//	                                          (parallel essential-signal, on the
//	                                          merged-level schedule), verilator
//	                                          -> Verilator-MT (parallel full-cycle)
//	-cycles N                                 cycles to simulate
//	-max-supernode N                          supernode size cap (paper Fig. 9)
//	-poke name=value                          set an input before simulation (repeatable)
//	-watch name                               print a node's value every cycle (repeatable)
//	-vcd file.vcd                             dump a waveform through the async pipeline
//	-vcd-sync                                 format the waveform on the coordinator
//	                                          instead (the pre-pipeline behavior)
//	-save file.snap                           write a snapshot of complete simulator
//	                                          state after the run (internal/snapshot)
//	-restore file.snap                        resume from a snapshot before simulating;
//	                                          the snapshot's design hash must match this
//	                                          build (same design, same -engine options)
//	-stats                                    print engine counters and build info
//
// Example:
//
//	gsim -engine gsim -cycles 100 -poke en=1 -watch out testdata/counter.fir
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gsim/internal/bitvec"
	"gsim/internal/core"
	"gsim/internal/engine"
	"gsim/internal/firrtl"
	"gsim/internal/snapshot"
	"gsim/internal/trace"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	engineName := flag.String("engine", "gsim", "simulator preset: gsim, verilator, essent, arcilator")
	threads := flag.Int("threads", 0, "worker count: gsim -> parallel essential-signal (GSIMMT), verilator -> parallel full-cycle")
	cycles := flag.Int("cycles", 10, "cycles to simulate")
	maxSup := flag.Int("max-supernode", 0, "maximum supernode size (0 = default)")
	showStats := flag.Bool("stats", false, "print engine counters and build info")
	vcdPath := flag.String("vcd", "", "dump a VCD waveform of inputs/outputs/registers to this file")
	vcdSync := flag.Bool("vcd-sync", false, "format the waveform synchronously on the coordinator instead of the async pipeline")
	savePath := flag.String("save", "", "write a snapshot of complete simulator state to this file after the run")
	restorePath := flag.String("restore", "", "resume from a snapshot file before simulating (design hash must match)")
	var pokes, watches repeated
	flag.Var(&pokes, "poke", "input assignment name=value (repeatable)")
	flag.Var(&watches, "watch", "node to print every cycle (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gsim [flags] design.fir")
		flag.Usage()
		os.Exit(2)
	}
	g, err := firrtl.LoadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	st := g.ComputeStats()
	fmt.Printf("loaded %s: %d nodes, %d edges, %d regs, %d mems\n",
		g.Name, st.Nodes, st.Edges, st.Regs, st.Mems)

	var cfg core.Config
	switch *engineName {
	case "gsim":
		if *threads > 0 {
			cfg = core.GSIMMT(*threads)
		} else {
			cfg = core.GSIM()
		}
	case "verilator":
		if *threads > 0 {
			cfg = core.VerilatorMT(*threads)
		} else {
			cfg = core.Verilator()
		}
	case "essent":
		cfg = core.Essent()
	case "arcilator":
		cfg = core.Arcilator()
	default:
		fatal(fmt.Errorf("unknown engine %q", *engineName))
	}
	if *threads > 0 && cfg.Threads == 0 {
		fatal(fmt.Errorf("-threads is only valid with -engine gsim or verilator"))
	}
	if *maxSup > 0 {
		cfg.MaxSupernode = *maxSup
	}
	sys, err := core.Build(g, cfg)
	if err != nil {
		fatal(err)
	}
	defer sys.Close()
	fmt.Printf("built %s in %v (passes: %s; %s)\n", cfg.Name, sys.BuildTime.Round(1000), sys.PassResult, sys.PassResult.Timing())
	if sys.Part != nil {
		fmt.Printf("partition: %d supernodes (avg %.1f nodes, cut %d)\n",
			sys.Part.Count(), sys.Part.AvgSize(), sys.Part.CutEdges)
	}
	if sv := sys.Sim.Shard(); sv != nil {
		fmt.Printf("schedule: %d dependence levels merged into %d, %d barriers/cycle\n",
			sv.OrigLevels, sv.Levels, sv.Levels)
	}

	// Checkpoint restore happens before pokes and tracing: pokes override
	// restored input values, and the waveform resumes from the restored
	// cycle. The resume diff base is captured here — before the pokes —
	// so a -poke that changes a restored input still appears as a value
	// change in the resumed waveform.
	var resumeState []uint64
	if *restorePath != "" {
		data, err := os.ReadFile(*restorePath)
		if err != nil {
			fatal(err)
		}
		if err := snapshot.Restore(sys.Sim, data); err != nil {
			fatal(err)
		}
		resumeState = append([]uint64{}, sys.Sim.Machine().State...)
		fmt.Printf("restored %s: resuming at cycle %d\n", *restorePath, sys.Sim.Stats().Cycles)
	}

	for _, p := range pokes {
		name, val, ok := strings.Cut(p, "=")
		if !ok {
			fatal(fmt.Errorf("bad -poke %q, want name=value", p))
		}
		n := sys.Node(name)
		if n == nil {
			fatal(fmt.Errorf("no input %q", name))
		}
		bv, err := bitvec.Parse(n.Width, val)
		if err != nil {
			fatal(err)
		}
		sys.Sim.Poke(n.ID, bv)
	}

	// Waveform capture routes through the async pipeline by default: the
	// engine snapshots state at the end of each Step and a writer goroutine
	// formats behind it, so tracing no longer serializes the (parallel)
	// sweep. -vcd-sync restores coordinator-side formatting.
	var tracer *trace.VCD
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts := trace.Options{Sync: *vcdSync}
		if resumeState != nil {
			// Continue the waveform where the checkpointed run left off:
			// appending this stream to the pre-snapshot VCD reproduces an
			// uninterrupted run's bytes.
			opts.Resume = &trace.Resume{Time: sys.Sim.Stats().Cycles, State: resumeState}
		}
		tracer, err = trace.NewVCD(f, sys.Prog, nil, opts)
		if err != nil {
			fatal(err)
		}
		sys.Sim.(interface{ AttachTracer(engine.Tracer) }).AttachTracer(tracer)
	}

	watchIDs := map[string]int{}
	for _, wname := range watches {
		n := sys.Node(wname)
		if n == nil {
			fatal(fmt.Errorf("no node %q to watch", wname))
		}
		watchIDs[wname] = n.ID
	}

	for c := 0; c < *cycles; c++ {
		sys.Sim.Step()
		if tracer != nil {
			select {
			case err := <-tracer.Err():
				fatal(fmt.Errorf("vcd: %v", err))
			default:
			}
		}
		if len(watchIDs) > 0 {
			fmt.Printf("cycle %4d:", c)
			for _, wname := range watches {
				fmt.Printf(" %s=%s", wname, sys.Sim.Peek(watchIDs[wname]))
			}
			fmt.Println()
		}
	}

	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fatal(fmt.Errorf("vcd: %v", err))
		}
	}

	if *savePath != "" {
		data, err := snapshot.Save(sys.Sim)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*savePath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("saved %s: %d bytes at cycle %d\n", *savePath, len(data), sys.Sim.Stats().Cycles)
	}

	if *showStats {
		s := sys.Sim.Stats()
		fmt.Printf("cycles=%d nodeEvals=%d activations=%d examinations=%d instrs=%d af=%.4f\n",
			s.Cycles, s.NodeEvals, s.Activations, s.Examinations, s.InstrsExecuted, s.ActivityFactor())
		fmt.Printf("code=%dB data=%dB emit=%v\n", sys.Prog.CodeBytes(), sys.Prog.DataBytes(), sys.Prog.EmitTime.Round(1000))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gsim:", err)
	os.Exit(1)
}
