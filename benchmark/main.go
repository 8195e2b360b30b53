// Command benchmark is the repository's end-to-end benchmark: five
// fixed-work workloads, four gated end-to-end metrics per workload, and — in a
// separate traced run — a per-module ledger. README.md documents the
// workloads, metrics, estimators and the calibrated regression bounds;
// BENCHMARK.json at the repository root is the machine-readable contract.
//
//	go run ./benchmark -seed 1                      # all five workloads
//	go run ./benchmark -workload rocket-hot -seed 7 # one workload
//	go run ./benchmark -trace 1                     # per-layer metrics, ledger, spans
//	go run ./benchmark -aa 10                       # A/A table against the bounds
//
// The human-readable table goes to stderr. stdout carries, per workload, one
// JSON line of identifying detail (digest, exact counts, host) and then the
// result line {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all five)")
		seed    = flag.Int64("seed", 1, "seed of every stimulus and op-mix stream")
		seconds = flag.Int("seconds", baseSeconds, "nominal length of the timed region; scales the fixed work per segment")
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics, ledger, spans); 0: end-to-end metrics")
		aa      = flag.Int("aa", 0, "run the suite N times in child processes and print the A/A table")
		size    = flag.String("scale", "full", "full, or tiny (the self-test's scale)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *aa, *size); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// spanDir is where the traced run writes trace-<workload>.json, relative to
// the repository root the benchmark is run from. It is git-ignored.
const spanDir = "benchmark/out"

func run(name string, seed int64, seconds, trace, aa int, size string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds < 1 || seconds > 60 {
		return fmt.Errorf("-seconds %d outside 1..60", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	var sc scale
	switch size {
	case "full":
		sc = fullScale(seconds)
	case "tiny":
		sc = tinyScale()
	default:
		return fmt.Errorf("-scale %q: want full or tiny", size)
	}
	todo := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}
	if aa > 0 {
		return runAA(todo, aa, seed, seconds, size, os.Stderr)
	}
	bad := 0
	khz := map[string]float64{}
	for _, w := range todo {
		r, err := runWorkload(w, sc, seed, trace == 1, spanDir, os.Stderr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := r.print(os.Stdout); err != nil {
			return err
		}
		if !r.correct() {
			bad++
		}
		khz[w.name] = r.metrics["sim_khz"].Value
	}
	if boot, full := khz["rocket-boot"], khz["rocket-fullcycle"]; boot > 0 && full > 0 {
		// Derived, never gated: the paper's headline ratio (§IV, Fig. 6).
		fmt.Fprintf(os.Stderr, "\nessential-signal over full-cycle, same design and stimulus: %.2fx (%.2f / %.2f kHz)\n", boot/full, boot, full)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workloads failed the correctness gate", bad, len(todo))
	}
	return nil
}

// runWorkload runs one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics), and writes the human-readable table to log.
func runWorkload(w workload, sc scale, seed int64, traced bool, outDir string, log io.Writer) (*report, error) {
	r := newReport(w.name, seed, traced)
	start := time.Now()
	before := spin()
	var err error
	switch {
	case traced:
		err = runLayers(w, sc, seed, r, outDir, log)
	case w.cfg != nil:
		err = runEngineWorkload(w, sc, seed, r)
	default:
		err = runServiceWorkload(w, sc, seed, r)
	}
	if err != nil {
		return nil, err
	}
	after := spin()
	r.Disturbed = math.Abs(after.Seconds()-before.Seconds()) > 0.1*before.Seconds()
	if traced {
		r.set("host.spin_ms", (before+after).Seconds()*1000/2)
	}
	r.WallS = time.Since(start).Seconds()
	if m := r.missing(); len(m) > 0 {
		return nil, fmt.Errorf("metrics never measured: %v", m)
	}
	r.table(log, before, after)
	return r, nil
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	return hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit()}
}

// commit is the revision stamped into the binary or, under `go run`, which
// stamps none, what git says about the working directory; "unknown" in an
// exported checkout that has neither.
var commit = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	// Only the working directory's own repository counts: git must not climb
	// out of an exported checkout into whatever repository surrounds it.
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
})

// print writes the two stdout lines of one workload: detail, then result.
func (r *report) print(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		*report
		OpsAttempted int      `json:"ops_attempted"`
		OpsFailed    int      `json:"ops_failed"`
		Host         hostInfo `json:"host"`
	}{r, r.attempted, r.failed, host()}); err != nil {
		return err
	}
	return enc.Encode(resultLine{r.correct(), r.attempted, r.failed, r.metrics})
}

// resultLine is the last stdout line of a workload: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// table is the human-readable form of one run.
func (r *report) table(w io.Writer, spinBefore, spinAfter time.Duration) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced run)"
	}
	h := host()
	fmt.Fprintf(w, "\n== %s  seed=%d  %s  %.1fs\n", r.Workload, r.Seed, mode, r.WallS)
	fmt.Fprintf(w, "   host: nproc=%d GOMAXPROCS=%d %s commit=%s spin=%.1f/%.1fms", h.NProc, h.GOMAXPROCS, h.Go, h.Commit,
		spinBefore.Seconds()*1000, spinAfter.Seconds()*1000)
	if r.Disturbed {
		fmt.Fprint(w, "  DISTURBED (host speed changed >10% during the run)")
	}
	fmt.Fprintln(w)
	for _, d := range r.defs {
		fmt.Fprintf(w, "   %-32s %14.4f %s\n", d.name, r.metrics[d.name].Value, d.unit)
	}
	if r.Raw != nil {
		fmt.Fprintf(w, "   timed metrics are at the nominal host speed; this run's host ran at %.3f of it and clocked setup_s %.4f, sim_khz %.4f, op_p50_ms %.4f\n",
			r.HostSpeed, r.Raw["setup_s"], r.Raw["sim_khz"], r.Raw["op_p50_ms"])
	}
	if pm := r.PostMigrate; pm != nil {
		fmt.Fprintf(w, "   after each live migration (not gated): sim_khz %.4f, op_p50_ms %.4f\n", pm.KHz, pm.OpP50MS)
	}
	fmt.Fprintf(w, "   ops_attempted=%d ops_failed=%d digest=%s\n", r.attempted, r.failed, r.Digest)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   INCORRECT: %s\n", p)
	}
}
