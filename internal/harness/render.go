package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// RenderTable1 prints Table I.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table I: single-thread full-cycle (Verilator-model) simulation speed\n")
	fmt.Fprintf(w, "%-16s %10s %10s %12s\n", "Design", "IR node", "IR edge", "Speed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %10d %10d %12s\n", r.Design, r.Nodes, r.Edges, hz(r.SpeedHz))
	}
}

func hz(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fMHz", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fkHz", v/1e3)
	default:
		return fmt.Sprintf("%.0fHz", v)
	}
}

// RenderFig6 prints the overall-performance matrix.
func RenderFig6(w io.Writer, cells []Fig6Cell) {
	fmt.Fprintf(w, "Figure 6: overall performance (speedup normalized to single-thread Verilator)\n")
	// Group by design+workload.
	type key struct{ d, wl string }
	groups := map[key]map[string]Fig6Cell{}
	var order []key
	var sims []string
	seenSim := map[string]bool{}
	for _, c := range cells {
		k := key{c.Design, c.Workload}
		if groups[k] == nil {
			groups[k] = map[string]Fig6Cell{}
			order = append(order, k)
		}
		groups[k][c.Simulator] = c
		if !seenSim[c.Simulator] {
			seenSim[c.Simulator] = true
			sims = append(sims, c.Simulator)
		}
	}
	fmt.Fprintf(w, "%-16s %-9s", "Design", "Workload")
	for _, s := range sims {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	for _, k := range order {
		fmt.Fprintf(w, "%-16s %-9s", k.d, k.wl)
		for _, s := range sims {
			c := groups[k][s]
			fmt.Fprintf(w, " %11.2fx", c.Speedup)
		}
		fmt.Fprintln(w)
	}
}

// RenderGSIMMT prints the multi-threaded GSIM thread sweep, with each
// multi-worker row's schedule change (dependence levels -> scheduled levels).
func RenderGSIMMT(w io.Writer, rows []GSIMMTRow) {
	fmt.Fprintf(w, "GSIMMT: parallel essential-signal engine thread sweep (speedup vs 1T GSIM)\n")
	fmt.Fprintf(w, "%-16s %-9s %-9s %12s %9s %12s\n", "Design", "Workload", "Threads", "Speed", "Speedup", "levels")
	for _, r := range rows {
		label, levels := "gsim", "-"
		if r.Threads > 0 {
			label = fmt.Sprintf("%dT", r.Threads)
		}
		if r.Levels > 0 {
			levels = fmt.Sprintf("%d -> %d", r.OrigLevels, r.Levels)
		}
		fmt.Fprintf(w, "%-16s %-9s %-9s %12s %8.2fx %12s\n", r.Design, r.Workload, label, hz(r.SpeedHz), r.Speedup, levels)
	}
}

// RenderFig7 prints the checkpoint study.
func RenderFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintf(w, "Figure 7: SPEC CPU2006 checkpoints on the largest design (speedup vs 1T Verilator)\n")
	fmt.Fprintf(w, "%-20s %14s %14s %8s\n", "Checkpoint", "Verilator-4T", "Verilator-8T", "GSIM")
	var g4, g8, gg []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %13.2fx %13.2fx %7.2fx\n", r.Checkpoint, r.V4T, r.V8T, r.Vs1T)
		g4 = append(g4, r.V4T)
		g8 = append(g8, r.V8T)
		gg = append(gg, r.Vs1T)
	}
	fmt.Fprintf(w, "%-20s %13.2fx %13.2fx %7.2fx\n", "geometric mean",
		geoMean(g4), geoMean(g8), geoMean(gg))
}

// geoMean returns the geometric mean of positive values; non-positive values
// are skipped. Returns 0 for an empty (or all-skipped) input.
func geoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// RenderFig8 prints the per-technique breakdown.
func RenderFig8(w io.Writer, steps []Fig8Step) {
	fmt.Fprintf(w, "Figure 8: performance breakdown (cumulative; bar height = log10 gain)\n")
	var design string
	for _, s := range steps {
		if s.Design != design {
			design = s.Design
			fmt.Fprintf(w, "-- %s\n", design)
		}
		// Regressions (negative gain) render as an empty bar; the signed
		// number next to it carries the information.
		n := int(s.Log10Gain*40 + 0.5)
		if n < 0 {
			n = 0
		}
		bar := strings.Repeat("#", n)
		fmt.Fprintf(w, "   %-34s %12s  %+.3f %s\n", s.Technique, hz(s.SpeedHz), s.Log10Gain, bar)
	}
}

// RenderFig9 prints the supernode-size sweep.
func RenderFig9(w io.Writer, pts []Fig9Point) {
	fmt.Fprintf(w, "Figure 9: performance vs maximum supernode size (normalized per design)\n")
	byDesign := map[string][]Fig9Point{}
	var names []string
	for _, p := range pts {
		if _, ok := byDesign[p.Design]; !ok {
			names = append(names, p.Design)
		}
		byDesign[p.Design] = append(byDesign[p.Design], p)
	}
	for _, n := range names {
		fmt.Fprintf(w, "-- %s\n", n)
		best := byDesign[n][0]
		for _, p := range byDesign[n] {
			if p.SpeedHz > best.SpeedHz {
				best = p
			}
		}
		for _, p := range byDesign[n] {
			mark := ""
			if p.MaxSize == best.MaxSize {
				mark = "  <-- optimum"
			}
			fmt.Fprintf(w, "   size %4d: %8.3fx (%s)%s\n", p.MaxSize, p.Speedup, hz(p.SpeedHz), mark)
		}
	}
}

// RenderTable3 prints the partitioning comparison.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "Table III: partitioning algorithms (BOOM-scale design, CoreMark workload)\n")
	fmt.Fprintf(w, "%-12s %14s %11s %17s %13s %12s\n",
		"partition", "time (ms)", "supernode", "activations/cyc", "active/cyc", "speed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14.1f %11d %17d %13d %12s\n",
			r.Algorithm, r.PartitionMS, r.Supernodes, r.Activations, r.ActiveNodes, hz(r.SpeedHz))
	}
}

// RenderTable4 prints the resource comparison.
func RenderTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table IV: resources (emission time, code size, data size; memories excluded)\n")
	fmt.Fprintf(w, "%-16s %-12s %14s %12s %12s\n", "Design", "Simulator", "Emit (ms)", "Code", "Data")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-12s %14.1f %12s %12s\n",
			r.Design, r.Simulator, r.EmitTimeMS, bytes(r.CodeBytes), bytes(r.DataBytes))
	}
}

func bytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fM", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fK", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// SortFig9 orders points by design then size (stable rendering for tests).
func SortFig9(pts []Fig9Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Design != pts[j].Design {
			return pts[i].Design < pts[j].Design
		}
		return pts[i].MaxSize < pts[j].MaxSize
	})
}
