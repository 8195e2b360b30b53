package partition

import (
	"fmt"
	"testing"

	"gsim/internal/ir"
	"gsim/internal/passes"
)

// deepChainGraph builds a deliberately deep, narrow design: a few lanes of
// long combinational chains feeding registers. Its dependence levelization is
// ~depth levels of tiny weight — the shape where one barrier per level
// dominates and coarsening must collapse the schedule.
func deepChainGraph(t *testing.T, depth, lanes int) *ir.Graph {
	t.Helper()
	b := ir.NewBuilder("deepchain")
	in := b.Input("in", 16)
	for l := 0; l < lanes; l++ {
		r := b.Reg(fmt.Sprintf("state%d", l), 16)
		cur := b.Xor(b.R(r), b.R(in))
		for d := 0; d < depth; d++ {
			cur = b.R(b.Comb(fmt.Sprintf("lane%d_d%d", l, d), b.Add(b.Not(cur), b.R(in))))
		}
		b.SetNext(r, cur)
		b.MarkOutput(b.Comb(fmt.Sprintf("out%d", l), cur))
	}
	g := b.G
	passes.Normalize(g)
	if err := g.SortTopological(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCoarsenInvariants sweeps the grain, from one scheduled level per
// dependence level (1) to everything mergeable merged (1 << 20), through the
// shard contract.
func TestCoarsenInvariants(t *testing.T) {
	graphs := []*ir.Graph{deepChainGraph(t, 40, 3)}
	for seed := int64(0); seed < 3; seed++ {
		graphs = append(graphs, testGraph(t, seed))
	}
	for _, g := range graphs {
		for _, kind := range []Kind{None, Enhanced} {
			r := Build(g, kind, 8)
			for _, threads := range []int{1, 2, 4} {
				for _, grain := range []int64{0, 1, 64, 1 << 20} {
					checkShardInvariants(t, g, r, r.shard(g, threads, nil, grain))
				}
			}
		}
	}
}

// TestCoarsenCutsDeepSchedule pins the point of merging: on a deep, narrow
// design the adaptive schedule must use far fewer barrier levels than the
// dependence depth, while a grain of one weight unit keeps one level per
// dependence level.
func TestCoarsenCutsDeepSchedule(t *testing.T) {
	g := deepChainGraph(t, 60, 2)
	r := Build(g, Enhanced, 4)
	plain := r.shard(g, 2, nil, 1)
	if plain.Levels != plain.OrigLevels {
		t.Fatalf("grain-1 view reports Levels=%d != OrigLevels=%d", plain.Levels, plain.OrigLevels)
	}
	if plain.OrigLevels < 20 {
		t.Fatalf("deep chain levelized to only %d levels; test design too shallow", plain.OrigLevels)
	}
	v := r.Shard(g, 2, nil)
	if v.OrigLevels != plain.OrigLevels {
		t.Fatalf("adaptive OrigLevels=%d, want %d", v.OrigLevels, plain.OrigLevels)
	}
	if v.Levels*2 > v.OrigLevels {
		t.Fatalf("merging left %d of %d levels; expected at least a 2x cut on a deep chain",
			v.Levels, v.OrigLevels)
	}
}

// TestCoarsenGrainMonotone: a coarser grain can only shorten the schedule.
func TestCoarsenGrainMonotone(t *testing.T) {
	g := deepChainGraph(t, 30, 3)
	r := Build(g, Enhanced, 4)
	prev := -1
	for _, grain := range []int64{1, 8, 64, 1 << 20} {
		v := r.shard(g, 2, nil, grain)
		if prev >= 0 && v.Levels > prev {
			t.Fatalf("grain %d produced %d levels, more than the finer grain's %d", grain, v.Levels, prev)
		}
		prev = v.Levels
	}
}

// TestCoarsenDeterminism: merging is a pure function of the partition, the
// thread count and the grain. Two independently built partitions of the deep
// chain — the shape where levels actually merge — must yield identical
// schedules at every grain, chunk by chunk.
func TestCoarsenDeterminism(t *testing.T) {
	g := deepChainGraph(t, 40, 3)
	ra := Build(g, Enhanced, 8)
	rb := Build(g, Enhanced, 8)
	for _, grain := range []int64{1, 64, 1 << 20} {
		a := ra.shard(g, 4, nil, grain)
		b := rb.shard(g, 4, nil, grain)
		if a.Levels != b.Levels || a.OrigLevels != b.OrigLevels {
			t.Fatalf("grain %d: nondeterministic level counts: %d/%d vs %d/%d",
				grain, a.Levels, a.OrigLevels, b.Levels, b.OrigLevels)
		}
		for s := range a.ShardOf {
			if a.ShardOf[s] != b.ShardOf[s] || a.LevelOf[s] != b.LevelOf[s] {
				t.Fatalf("grain %d: nondeterministic merged assignment at supernode %d", grain, s)
			}
		}
		for lv := range a.Chunks {
			for w := range a.Chunks[lv] {
				if fmt.Sprint(a.Chunks[lv][w]) != fmt.Sprint(b.Chunks[lv][w]) {
					t.Fatalf("grain %d: chunk (%d,%d) differs: %v vs %v",
						grain, lv, w, a.Chunks[lv][w], b.Chunks[lv][w])
				}
			}
		}
	}
}
