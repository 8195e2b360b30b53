package harness

import (
	"strings"
	"testing"

	"gsim/internal/core"
	"gsim/internal/gen"
)

// TestExperimentsSmoke runs every experiment end to end on the small designs
// with a tiny budget, checking structure rather than magnitudes.
func TestExperimentsSmoke(t *testing.T) {
	designs := SmallDesigns()
	b := QuickBudget()

	t.Run("table1", func(t *testing.T) {
		rows, err := Table1(designs, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(designs) {
			t.Fatalf("got %d rows", len(rows))
		}
		for _, r := range rows {
			if r.Nodes <= 0 || r.Edges <= 0 || r.SpeedHz <= 0 {
				t.Fatalf("bad row %+v", r)
			}
		}
		var sb strings.Builder
		RenderTable1(&sb, rows)
		if !strings.Contains(sb.String(), "stucore") {
			t.Fatal("render missing design")
		}
	})

	t.Run("fig6", func(t *testing.T) {
		cells, err := Fig6(designs[:1], b)
		if err != nil {
			t.Fatal(err)
		}
		want := len(Fig6Configs()) * 2 // two workloads
		if len(cells) != want {
			t.Fatalf("got %d cells, want %d", len(cells), want)
		}
		for _, c := range cells {
			if c.Simulator == "verilator" && (c.Speedup < 0.99 || c.Speedup > 1.01) {
				t.Fatalf("baseline not normalized: %+v", c)
			}
		}
		var sb strings.Builder
		RenderFig6(&sb, cells)
		if !strings.Contains(sb.String(), "gsim") {
			t.Fatal("render missing gsim column")
		}
	})

	t.Run("gsimmt", func(t *testing.T) {
		rows, err := GSIMMTSweep(designs[:1], []int{2, 4}, b)
		if err != nil {
			t.Fatal(err)
		}
		want := 3 * 2 // baseline + two thread counts, two workloads
		if len(rows) != want {
			t.Fatalf("got %d rows, want %d", len(rows), want)
		}
		for _, r := range rows {
			if r.SpeedHz <= 0 {
				t.Fatalf("bad row %+v", r)
			}
			if r.Threads == 0 && (r.Speedup < 0.99 || r.Speedup > 1.01) {
				t.Fatalf("baseline not normalized: %+v", r)
			}
			if r.Threads > 1 && (r.Levels < 1 || r.Levels > r.OrigLevels) {
				t.Fatalf("schedule change not reported: %+v", r)
			}
		}
		var sb strings.Builder
		RenderGSIMMT(&sb, rows)
		if !strings.Contains(sb.String(), "4T") || !strings.Contains(sb.String(), " -> ") {
			t.Fatal("render missing thread count or schedule change")
		}
	})

	t.Run("fig7", func(t *testing.T) {
		rows, err := Fig7(gen.StuCoreLike(), b)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(CheckpointNames) {
			t.Fatalf("got %d checkpoints", len(rows))
		}
		var sb strings.Builder
		RenderFig7(&sb, rows)
		if !strings.Contains(sb.String(), "geometric mean") {
			t.Fatal("render missing geomean")
		}
	})

	t.Run("fig8", func(t *testing.T) {
		steps, err := Fig8(designs[1:], b)
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) != len(fig8Stages()) {
			t.Fatalf("got %d steps, want %d", len(steps), len(fig8Stages()))
		}
		if steps[0].Technique != "baseline" {
			t.Fatalf("first step %q", steps[0].Technique)
		}
		var sb strings.Builder
		RenderFig8(&sb, steps)
		if !strings.Contains(sb.String(), "supernode") {
			t.Fatal("render missing technique")
		}
	})

	t.Run("fig9", func(t *testing.T) {
		sizes := []int{1, 8, 64}
		pts, err := Fig9(designs[1:], sizes, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(sizes) {
			t.Fatalf("got %d points", len(pts))
		}
		SortFig9(pts)
		var sb strings.Builder
		RenderFig9(&sb, pts)
		if !strings.Contains(sb.String(), "optimum") {
			t.Fatal("render missing optimum marker")
		}
	})

	t.Run("table3", func(t *testing.T) {
		rows, err := Table3(designs[1], b)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("got %d rows", len(rows))
		}
		byName := map[string]Table3Row{}
		for _, r := range rows {
			byName[r.Algorithm] = r
		}
		// Structural expectations from the paper's Table III: None has the
		// most supernodes; GSIM has fewer supernodes than MFFC.
		if byName["None"].Supernodes <= byName["GSIM"].Supernodes {
			t.Fatalf("None should have the most supernodes: %+v", rows)
		}
		var sb strings.Builder
		RenderTable3(&sb, rows)
		if !strings.Contains(sb.String(), "Kernighan") {
			t.Fatal("render missing algorithm")
		}
	})

	t.Run("table4", func(t *testing.T) {
		rows, err := Table4(designs, QuickBudget())
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(designs)*4 {
			t.Fatalf("got %d rows", len(rows))
		}
		for _, r := range rows {
			if r.CodeBytes <= 0 || r.DataBytes <= 0 || r.EmitTimeMS < 0 {
				t.Fatalf("bad row %+v", r)
			}
		}
		var sb strings.Builder
		RenderTable4(&sb, rows)
		if !strings.Contains(sb.String(), "arcilator") {
			t.Fatal("render missing simulator")
		}
	})
}

// TestWorkloadActivityDiffers checks the workload design premise: the
// hot-loop stimulus must produce a lower activity factor than the boot-like
// stimulus on the same design under GSIM.
func TestWorkloadActivityDiffers(t *testing.T) {
	d := Synthetic(gen.StuCoreLike())
	af := map[string]float64{}
	for _, wl := range []string{WorkloadCoreMark, WorkloadLinux} {
		sys, drive, err := buildSystem(d, wl, core.GSIM())
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 200; c++ {
			drive(sys.Sim, c)
			sys.Sim.Step()
		}
		af[wl] = sys.Sim.Stats().ActivityFactor()
		sys.Close()
	}
	if af[WorkloadCoreMark] >= af[WorkloadLinux] {
		t.Fatalf("coremark af (%.3f) should be below linux af (%.3f)", af[WorkloadCoreMark], af[WorkloadLinux])
	}
}

// TestCheckpointStimuliDiffer: distinct checkpoints must have distinct
// working sets (else Fig. 7 degenerates).
func TestCheckpointStimuliDiffer(t *testing.T) {
	p := gen.RocketLike()
	a := checkpointStimulus(p, 1000)
	b := checkpointStimulus(p, 1017)
	same := 0
	for c := 0; c < 64; c++ {
		if a(c).Equal(b(c)) {
			same++
		}
	}
	if same == 64 {
		t.Fatal("two checkpoints produced identical stimulus")
	}
}
