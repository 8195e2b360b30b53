package partition

import (
	"testing"

	"gsim/internal/gen"
	"gsim/internal/ir"
	"gsim/internal/passes"
)

func testGraph(t *testing.T, seed int64) *ir.Graph {
	t.Helper()
	g := gen.Random(seed, gen.DefaultRandomConfig())
	passes.Normalize(g)
	if err := g.SortTopological(); err != nil {
		t.Fatal(err)
	}
	return g
}

// checkInvariants verifies the properties every partitioner must provide:
// full coverage of evaluable nodes, disjointness, the size cap, and — the
// correctness-critical one — that the supernode sequence is a topological
// order of the value-dependence condensation.
func checkInvariants(t *testing.T, g *ir.Graph, r *Result, maxSize int, capped bool) {
	t.Helper()
	seen := map[int32]int{}
	for si, members := range r.Members {
		if len(members) == 0 {
			t.Fatalf("supernode %d empty", si)
		}
		if capped && len(members) > maxSize {
			t.Fatalf("supernode %d has %d members, cap %d", si, len(members), maxSize)
		}
		for _, id := range members {
			if _, dup := seen[id]; dup {
				t.Fatalf("node %d in two supernodes", id)
			}
			seen[id] = si
			if r.SupOf[id] != int32(si) {
				t.Fatalf("SupOf inconsistent for node %d", id)
			}
		}
	}
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		if n.HasCode() {
			if _, ok := seen[int32(n.ID)]; !ok {
				t.Fatalf("evaluable node %d (%s) not covered", n.ID, n.Name)
			}
		} else if r.SupOf[n.ID] != -1 {
			t.Fatalf("input %d assigned to a supernode", n.ID)
		}
	}
	// Dependence edges must never point to an earlier supernode, and member
	// lists must be ascending (intra-supernode dependence order).
	for _, n := range g.Nodes {
		if n == nil || !n.HasCode() {
			continue
		}
		n.EachExpr(func(slot **ir.Expr) {
			(*slot).Walk(func(e *ir.Expr) {
				if e.Op != ir.OpRef {
					return
				}
				u := e.Node
				if u.Kind == ir.KindReg || u.Kind == ir.KindInput {
					return
				}
				if r.SupOf[u.ID] > r.SupOf[n.ID] {
					t.Fatalf("dep edge %s -> %s goes backward across supernodes (%d > %d)",
						u.Name, n.Name, r.SupOf[u.ID], r.SupOf[n.ID])
				}
			})
		})
	}
	for si, members := range r.Members {
		for i := 1; i < len(members); i++ {
			if members[i-1] >= members[i] {
				t.Fatalf("supernode %d members not ascending", si)
			}
		}
	}
}

func TestAllKindsInvariants(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := testGraph(t, seed)
		for _, kind := range []Kind{None, Kernighan, MFFC, Enhanced} {
			for _, size := range []int{1, 4, 32, 200} {
				r := Build(g, kind, size)
				checkInvariants(t, g, r, size, true)
			}
		}
	}
}

func TestNoneIsSingletons(t *testing.T) {
	g := testGraph(t, 1)
	r := Build(g, None, 32)
	evaluable := 0
	for _, n := range g.Nodes {
		if n != nil && n.HasCode() {
			evaluable++
		}
	}
	if r.Count() != evaluable {
		t.Fatalf("None produced %d supernodes, want %d", r.Count(), evaluable)
	}
}

func TestEnhancedGroupsMoreThanNone(t *testing.T) {
	g := testGraph(t, 2)
	none := Build(g, None, 32)
	enh := Build(g, Enhanced, 32)
	if enh.Count() >= none.Count() {
		t.Fatalf("Enhanced did not group anything: %d vs %d", enh.Count(), none.Count())
	}
	// Grouping should reduce crossing activation edges.
	if enh.CutEdges >= none.CutEdges {
		t.Fatalf("Enhanced did not reduce cut: %d vs %d", enh.CutEdges, none.CutEdges)
	}
}

func TestDeterminism(t *testing.T) {
	g := testGraph(t, 3)
	for _, kind := range []Kind{Kernighan, MFFC, Enhanced} {
		a := Build(g, kind, 16)
		b := Build(g, kind, 16)
		if a.Count() != b.Count() {
			t.Fatalf("%v nondeterministic supernode count", kind)
		}
		for i := range a.SupOf {
			if a.SupOf[i] != b.SupOf[i] {
				t.Fatalf("%v nondeterministic assignment at node %d", kind, i)
			}
		}
	}
}

func TestSizeCapShrinksSupernodes(t *testing.T) {
	g := testGraph(t, 4)
	small := Build(g, Enhanced, 2)
	large := Build(g, Enhanced, 64)
	if small.Count() <= large.Count() {
		t.Fatalf("smaller cap should give more supernodes: %d vs %d", small.Count(), large.Count())
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{None, Kernighan, MFFC, Enhanced} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

// TestMFFCFanoutFree verifies the cone property: inside an MFFC group, every
// non-root member's dep successors stay within the group.
func TestMFFCFanoutFree(t *testing.T) {
	g := testGraph(t, 5)
	r := Build(g, MFFC, 1<<30) // uncapped: pure cones
	adj := g.BuildAdjacency()
	for _, members := range r.Members {
		inGroup := map[int32]bool{}
		for _, id := range members {
			inGroup[id] = true
		}
		// The cone root is the single member whose dependence fanout may
		// leave the group; every other member's dep successors stay inside.
		leaving := 0
		for _, id := range members {
			n := g.Nodes[id]
			if n.Kind == ir.KindReg || n.Kind == ir.KindMemWrite {
				continue // register/write out-edges are not dep edges
			}
			allInside := true
			for _, s := range adj.Succs[id] {
				if !inGroup[s] {
					allInside = false
					break
				}
			}
			if !allInside {
				leaving++
			}
		}
		if leaving > 1 {
			t.Fatalf("MFFC group with %d members has %d fanout nodes, want <= 1", len(members), leaving)
		}
	}
}

// checkShardInvariants verifies the thread-shard view's contract: every
// supernode appears in exactly one (level, shard) chunk consistent with
// LevelOf/ShardOf, chunks are ascending, and — the correctness-critical one —
// a merged level never reorders a dependency: every dependence edge between
// distinct supernodes either advances to a strictly later scheduled level
// (sequenced by the barrier) or lands inside one shard's chunk with the
// source strictly before the target (sequenced by the ordered chain).
func checkShardInvariants(t *testing.T, g *ir.Graph, r *Result, v *ShardView) {
	t.Helper()
	if v.Levels > v.OrigLevels {
		t.Fatalf("merging grew the schedule: %d levels from %d", v.Levels, v.OrigLevels)
	}
	seen := make(map[int32]bool)
	pos := make(map[int32]int) // supernode -> index within its chunk
	for lv, shards := range v.Chunks {
		if len(shards) != v.Threads {
			t.Fatalf("level %d has %d shards, want %d", lv, len(shards), v.Threads)
		}
		for w, chunk := range shards {
			for i, s := range chunk {
				if seen[s] {
					t.Fatalf("supernode %d in two chunks", s)
				}
				seen[s] = true
				pos[s] = i
				if v.LevelOf[s] != int32(lv) || v.ShardOf[s] != int32(w) {
					t.Fatalf("supernode %d chunk (%d,%d) disagrees with LevelOf=%d ShardOf=%d",
						s, lv, w, v.LevelOf[s], v.ShardOf[s])
				}
				if i > 0 && chunk[i-1] >= s {
					t.Fatalf("chunk (%d,%d) not ascending", lv, w)
				}
			}
		}
	}
	if len(seen) != r.Count() {
		t.Fatalf("shard view covers %d supernodes, want %d", len(seen), r.Count())
	}
	// Chunk metadata: one weight row per level, one entry per shard; an
	// empty chunk weighs zero and a populated chunk weighs at least its
	// supernode count under the default (per-node) weighting, at least zero
	// under any custom weighting.
	if len(v.ChunkWeight) != v.Levels {
		t.Fatalf("ChunkWeight has %d levels, want %d", len(v.ChunkWeight), v.Levels)
	}
	for lv, ws := range v.ChunkWeight {
		if len(ws) != v.Threads {
			t.Fatalf("ChunkWeight level %d has %d entries, want %d", lv, len(ws), v.Threads)
		}
		for w, weight := range ws {
			if len(v.Chunks[lv][w]) == 0 && weight != 0 {
				t.Fatalf("empty chunk (%d,%d) has weight %d", lv, w, weight)
			}
			if weight < 0 {
				t.Fatalf("chunk (%d,%d) has negative weight %d", lv, w, weight)
			}
		}
	}
	if im := v.Imbalance(); im < 1.0 {
		t.Fatalf("Imbalance() = %v, must be >= 1", im)
	}
	for _, n := range g.Nodes {
		if n == nil || !n.HasCode() {
			continue
		}
		n.EachExpr(func(slot **ir.Expr) {
			(*slot).Walk(func(e *ir.Expr) {
				if e.Op != ir.OpRef {
					return
				}
				u := e.Node
				if u.Kind == ir.KindReg || u.Kind == ir.KindInput {
					return
				}
				us, ns := r.SupOf[u.ID], r.SupOf[n.ID]
				if us < 0 || us == ns {
					return
				}
				switch {
				case v.LevelOf[us] < v.LevelOf[ns]:
					// Cross-level: the barrier sequences it.
				case v.LevelOf[us] > v.LevelOf[ns]:
					t.Fatalf("dep edge %s -> %s goes backward across levels (%d > %d)",
						u.Name, n.Name, v.LevelOf[us], v.LevelOf[ns])
				default:
					// Merged into one level: must be one shard's ordered chain.
					if v.ShardOf[us] != v.ShardOf[ns] {
						t.Fatalf("dep edge %s -> %s split across shards %d/%d inside merged level %d",
							u.Name, n.Name, v.ShardOf[us], v.ShardOf[ns], v.LevelOf[us])
					}
					if pos[us] >= pos[ns] {
						t.Fatalf("dep edge %s -> %s reordered inside merged level %d (chunk pos %d >= %d)",
							u.Name, n.Name, v.LevelOf[us], pos[us], pos[ns])
					}
				}
			})
		})
	}
}

func TestShardInvariants(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := testGraph(t, seed)
		for _, kind := range []Kind{None, MFFC, Enhanced} {
			r := Build(g, kind, 8)
			for _, threads := range []int{1, 2, 4, 7} {
				checkShardInvariants(t, g, r, r.Shard(g, threads, nil))
			}
		}
	}
}

// TestShardBalance: with many equal-weight supernodes per level, the LPT
// assignment must not put everything on one shard.
func TestShardBalance(t *testing.T) {
	g := testGraph(t, 1)
	r := Build(g, None, 1)     // singletons: plenty of parallel slack
	v := r.shard(g, 4, nil, 1) // one scheduled level per dependence level
	perShard := make([]int, v.Threads)
	for _, s := range v.ShardOf {
		perShard[s]++
	}
	for w, n := range perShard {
		if n == 0 {
			t.Fatalf("shard %d received no supernodes: %v", w, perShard)
		}
	}
	// Weighted sharding must honor the weight function, not just counts:
	// make one supernode in a multi-supernode level outweigh all its level
	// peers combined — LPT must then give it a shard of its own in that
	// level, with every peer packed onto the other shard.
	heavy := int32(-1)
	for _, sups := range levelSups(v) {
		if len(sups) > 2 {
			heavy = sups[0]
			break
		}
	}
	if heavy < 0 {
		t.Fatal("no level with > 2 supernodes in test graph")
	}
	heavyNodes := map[int32]bool{}
	for _, id := range r.Members[heavy] {
		heavyNodes[id] = true
	}
	wv := r.Shard(g, 2, func(id int32) int64 {
		if heavyNodes[id] {
			return 1 << 20
		}
		return 1
	})
	hl, hs := wv.LevelOf[heavy], wv.ShardOf[heavy]
	if got := len(wv.Chunks[hl][hs]); got != 1 {
		t.Fatalf("heavy supernode should sit alone in its shard at level %d, chunk has %d", hl, got)
	}
}

// levelSups flattens a ShardView back to per-level supernode lists.
func levelSups(v *ShardView) [][]int32 {
	out := make([][]int32, v.Levels)
	for lv, shards := range v.Chunks {
		for _, c := range shards {
			out[lv] = append(out[lv], c...)
		}
	}
	return out
}

// TestShardDeterminism: the same partition shards identically every time,
// levels, shards and the schedule change alike.
func TestShardDeterminism(t *testing.T) {
	g := testGraph(t, 2)
	r := Build(g, Enhanced, 8)
	a := r.Shard(g, 4, nil)
	b := r.Shard(g, 4, nil)
	if a.Levels != b.Levels || a.OrigLevels != b.OrigLevels {
		t.Fatalf("nondeterministic level counts: %d/%d vs %d/%d", a.Levels, a.OrigLevels, b.Levels, b.OrigLevels)
	}
	for s := range a.ShardOf {
		if a.ShardOf[s] != b.ShardOf[s] || a.LevelOf[s] != b.LevelOf[s] {
			t.Fatalf("nondeterministic shard assignment at supernode %d", s)
		}
	}
}
