// Command gsim-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	gsim-bench -exp table1|fig6|gsimmt|sessions|fig7|fig8|fig9|table3|table4|all [-quick] [-cycles N]
//	           [-threads 1,2,4,8]   thread counts for the gsimmt sweep
//	                                (doubles as the session counts for -exp sessions)
//
// -exp gsimmt prints each multi-worker row's schedule change: the dependence
// levels the merged-level schedule collapses into its barrier levels.
//
// Results print as text tables in the paper's layout; the README's
// "Benchmarks" section carries the measured findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gsim/internal/gen"
	"gsim/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig6, gsimmt, sessions, fig7, fig8, fig9, table3, table4, all")
	quick := flag.Bool("quick", false, "small designs and short measurements (smoke run)")
	medium := flag.Bool("medium", false, "stucore + rocket-scale designs, full budget")
	cycles := flag.Int("cycles", 0, "override timed cycles per measurement")
	threadList := flag.String("threads", "1,2,4,8", "comma-separated thread counts for the gsimmt sweep")
	flag.Parse()

	threadCounts, err := parseThreads(*threadList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	budget := harness.DefaultBudget()
	designs := harness.Designs()
	fig7Profile := gen.XiangShanLike()
	table3Design := harness.Synthetic(gen.BoomLike())
	fig9Sizes := harness.Fig9Sizes
	if *medium {
		designs = []harness.Design{harness.StuCore(), harness.Synthetic(gen.RocketLike())}
		fig7Profile = gen.RocketLike()
		table3Design = harness.Synthetic(gen.RocketLike())
	}
	if *quick {
		budget = harness.QuickBudget()
		designs = harness.SmallDesigns()
		fig7Profile = gen.StuCoreLike()
		table3Design = harness.Synthetic(gen.StuCoreLike())
		fig9Sizes = []int{1, 20, 50, 200}
	}
	if *cycles > 0 {
		budget.TimedCycles = *cycles
	}

	ran := false
	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		rows, err := harness.Table1(designs, budget)
		if err != nil {
			return err
		}
		harness.RenderTable1(os.Stdout, rows)
		return nil
	})
	run("fig6", func() error {
		cells, err := harness.Fig6(designs, budget)
		if err != nil {
			return err
		}
		harness.RenderFig6(os.Stdout, cells)
		return nil
	})
	run("gsimmt", func() error {
		rows, err := harness.GSIMMTSweep(designs, threadCounts, budget)
		if err != nil {
			return err
		}
		harness.RenderGSIMMT(os.Stdout, rows)
		return nil
	})
	run("sessions", func() error {
		rows, err := harness.SessionsSweep(designs, threadCounts, budget)
		if err != nil {
			return err
		}
		harness.RenderSessions(os.Stdout, rows)
		return nil
	})
	run("fig7", func() error {
		rows, err := harness.Fig7(fig7Profile, budget)
		if err != nil {
			return err
		}
		harness.RenderFig7(os.Stdout, rows)
		return nil
	})
	run("fig8", func() error {
		steps, err := harness.Fig8(designs, budget)
		if err != nil {
			return err
		}
		harness.RenderFig8(os.Stdout, steps)
		return nil
	})
	run("fig9", func() error {
		pts, err := harness.Fig9(designs, fig9Sizes, budget)
		if err != nil {
			return err
		}
		harness.SortFig9(pts)
		harness.RenderFig9(os.Stdout, pts)
		return nil
	})
	run("table3", func() error {
		rows, err := harness.Table3(table3Design, budget)
		if err != nil {
			return err
		}
		harness.RenderTable3(os.Stdout, rows)
		return nil
	})
	run("table4", func() error {
		rows, err := harness.Table4(designs, budget)
		if err != nil {
			return err
		}
		harness.RenderTable4(os.Stdout, rows)
		return nil
	})
	if !ran {
		fmt.Fprintf(os.Stderr, "gsim-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// parseThreads parses a comma-separated list of positive thread counts.
func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("gsim-bench: bad -threads entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
