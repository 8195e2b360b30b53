package core

import (
	"bytes"
	"runtime"
	"testing"

	"gsim/internal/firrtl"
	"gsim/internal/gen"
)

// Ceilings for one cold compile of stucore-like from FIRRTL text: the
// figures of the dense-table pipeline (4.77 MB in 44.8k objects) × 1.25. The
// map-and-clone pipeline before it took 9.91 MB in 98.3k. Counts, not
// timings: they repeat to within a fraction of a percent on any host.
const (
	compileBytesCeiling   = 5_960_000
	compileObjectsCeiling = 56_000
)

// TestCompileAllocCeiling guards the compile path the way
// TestActivityStepAllocs guards Step: a re-introduced per-node map, a clone
// where a move would do, or a token slice grown by doubling shows up here as
// allocation volume long before it shows up on a clock.
func TestCompileAllocCeiling(t *testing.T) {
	var buf bytes.Buffer
	if err := firrtl.Write(&buf, gen.BuildProfile(gen.StuCoreLike())); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	compile := func() {
		g, err := firrtl.Load(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CompileDesign(g, GSIM()); err != nil {
			t.Fatal(err)
		}
	}
	compile() // one-time initialisation (rule tables, sync.Once) stays out of the count
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		compile()
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
	objectsPer := (after.Mallocs - before.Mallocs) / runs
	t.Logf("one compile of stucore-like: %d bytes in %d objects", bytesPer, objectsPer)
	if bytesPer > compileBytesCeiling || objectsPer > compileObjectsCeiling {
		t.Fatalf("one compile allocates %d bytes in %d objects; ceilings are %d and %d",
			bytesPer, objectsPer, compileBytesCeiling, compileObjectsCeiling)
	}
}

// TestCompileAllocs pins the allocation count of CompileDesign alone (the
// FIRRTL text is loaded once, outside the count) for stucore-like under the
// GSIM and Verilator presets. Set-up time is too noisy to gate; the count
// repeats exactly. It read 22 432 and 15 798 while the compile path split
// every tree into one-op nodes and inlined them back, and 14 626 and 8 182
// once the passes took the trees as loaded.
func TestCompileAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := firrtl.Write(&buf, gen.BuildProfile(gen.StuCoreLike())); err != nil {
		t.Fatal(err)
	}
	g, err := firrtl.Load(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg     Config
		ceiling float64
	}{{GSIM(), 16_000}, {Verilator(), 9_000}} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := CompileDesign(g, c.cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per compile", c.cfg.Name, allocs)
		if allocs > c.ceiling {
			t.Errorf("%s: one compile of stucore-like makes %.0f allocations, ceiling %.0f", c.cfg.Name, allocs, c.ceiling)
		}
	}
}
