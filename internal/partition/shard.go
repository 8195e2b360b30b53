package partition

import (
	"sort"

	"gsim/internal/ir"
)

// ShardView distributes a partition's supernodes across thread shards. It is
// the one multi-worker schedule of both engines: engine.Activity shards the
// design's partition, engine.FullCycle the singleton partition (None).
// Workers sweep level by level with a barrier between levels.
//
// Supernodes are first levelized over the dependence condensation (all
// supernodes in one level are mutually independent given earlier levels).
// Consecutive sparse levels are then merged into one scheduled level until
// the merged run carries the adaptive grain's weight, so a barrier is only
// paid where enough work amortizes it. Supernodes connected by a dependence
// edge inside a merged run are co-assigned to one shard, and each shard's
// chunk keeps its members in ascending supernode order — a topological order
// of the dependence condensation (the package invariant) — so the chunk
// executes as an ordered chain and the dependence is honored without a
// barrier. Every other edge targets a strictly later scheduled level, so
// intra-cycle activations across chunks are visible before their targets
// are examined. Deep, narrow designs pay one barrier per scheduled level,
// down from one per dependence level; bulky ones, whose levels already
// reach the grain, keep one per level.
type ShardView struct {
	Threads int
	Levels  int         // scheduled levels (<= OrigLevels)
	LevelOf []int32     // supernode -> scheduled level
	ShardOf []int32     // supernode -> shard
	Chunks  [][][]int32 // level -> shard -> supernode IDs, ascending

	// OrigLevels is the dependence levelization depth before merging — the
	// barrier count a schedule of one level per dependence level would pay.
	// The schedule change (OrigLevels -> Levels) is what gsim-diag and the
	// harness report.
	OrigLevels int

	// ChunkWeight is the per-chunk metadata the assignment balanced:
	// ChunkWeight[level][shard] is the summed evaluation weight of that
	// chunk's supernodes. Engines use it to size batched kernel chains and
	// diagnostics use it to report shard imbalance (Imbalance).
	ChunkWeight [][]int64
}

// DefaultGrainPerShard is the per-worker evaluation weight (in nodeWeight
// units — compiled instructions, when the engine supplies its weighting) a
// scheduled level should reach before a barrier is worth paying. Sized
// against the level-barrier cost: workers hand off through one atomic
// countdown plus a spin-yield, which costs on the order of dozens of
// instruction evaluations per worker. A schedule's grain is threads x
// DefaultGrainPerShard, floored at the mean dependence level weight, so
// bulky schedules (whose levels already dwarf the barrier) keep one level
// per dependence level however many threads run.
const DefaultGrainPerShard = 64

// Imbalance reports the worst per-level load ratio: max over levels of
// (heaviest chunk / mean chunk weight), weighted toward the levels that
// carry work. 1.0 is a perfect split; levels with no weight are skipped.
func (v *ShardView) Imbalance() float64 {
	worst := 1.0
	for _, ws := range v.ChunkWeight {
		var total, max int64
		for _, w := range ws {
			total += w
			if w > max {
				max = w
			}
		}
		if total == 0 {
			continue
		}
		mean := float64(total) / float64(len(ws))
		if r := float64(max) / mean; r > worst {
			worst = r
		}
	}
	return worst
}

// Shard builds the thread-shard view of the partition at the adaptive
// grain. nodeWeight gives the evaluation cost of one node (typically its
// compiled instruction count); nil weighs every node equally. threads < 1 is
// treated as 1.
func (r *Result) Shard(g *ir.Graph, threads int, nodeWeight func(id int32) int64) *ShardView {
	return r.shard(g, threads, nodeWeight, 0)
}

// shard builds the view at a given grain, the target minimum evaluation
// weight per scheduled level; grain <= 0 selects the adaptive one. The
// assignment is one algorithm at every grain: dependence levels are grouped
// into runs, supernodes connected by an intra-run dependence edge are fused
// into components (always singletons when runs are single levels, because
// dependence edges strictly increase the level), and each run's components
// are spread across shards longest-processing-time first.
//
// Correctness of a merged run: every dependence edge whose endpoints both
// land in the run connects supernodes of one component, hence one shard; the
// shard's chunk is sorted by ascending supernode index, which the package
// invariant guarantees is a topological order of the dependence
// condensation, so the chunk's ordered chain evaluates the edge's source
// before its target. Edges entering the run from earlier runs are sequenced
// by the barrier.
func (r *Result) shard(g *ir.Graph, threads int, nodeWeight func(id int32) int64, grain int64) *ShardView {
	if threads < 1 {
		threads = 1
	}
	n := r.Count()
	v := &ShardView{
		Threads: threads,
		LevelOf: make([]int32, n),
		ShardOf: make([]int32, n),
	}
	if n == 0 {
		return v
	}

	// Supernode level: 1 + max level over dependence-predecessor supernodes.
	// Register and input reads see last cycle's value and are excluded, the
	// same dependence relation the partitioners order by.
	origLevel := make([]int32, n)
	weights := make([]int64, n)
	origLevels := 0
	for s := 0; s < n; s++ {
		lv := int32(0)
		for _, id := range r.Members[s] {
			if nodeWeight != nil {
				weights[s] += nodeWeight(id)
			} else {
				weights[s]++
			}
			g.Nodes[id].EachRef(func(u *ir.Node) {
				if u.Kind == ir.KindReg || u.Kind == ir.KindInput {
					return
				}
				us := r.SupOf[u.ID]
				if us >= 0 && us != int32(s) && origLevel[us]+1 > lv {
					lv = origLevel[us] + 1
				}
			})
		}
		origLevel[s] = lv
		if int(lv)+1 > origLevels {
			origLevels = int(lv) + 1
		}
	}
	v.OrigLevels = origLevels

	// Group dependence levels into runs: consecutive levels accumulate until
	// the run carries at least the grain's weight (a level that alone
	// reaches the grain always starts fresh, so heavy levels never serialize
	// behind a sparse prefix).
	levelWeight := make([]int64, origLevels)
	var total int64
	for s := 0; s < n; s++ {
		levelWeight[origLevel[s]] += weights[s]
		total += weights[s]
	}
	if grain <= 0 {
		grain = int64(threads) * DefaultGrainPerShard
		if mean := total / int64(origLevels); mean > grain {
			grain = mean
		}
	}
	runOf := make([]int32, origLevels)
	run, acc := int32(0), int64(0)
	open := false
	for lv := 0; lv < origLevels; lv++ {
		if open && levelWeight[lv] >= grain {
			run++
			acc = 0
		}
		runOf[lv] = run
		open = true
		acc += levelWeight[lv]
		if acc >= grain {
			run++
			acc = 0
			open = false
		}
	}
	if open {
		run++
	}
	v.Levels = int(run)

	// Component fusion: supernodes joined by a dependence edge that stays
	// inside one run must share a shard. Dependence edges strictly increase
	// the dependence level, so with single-level runs no edge qualifies and
	// every component is a singleton — the classic per-supernode LPT.
	root := make([]int32, n)
	for s := range root {
		root[s] = int32(s)
	}
	if v.Levels < origLevels {
		for _, node := range g.Nodes {
			sv := r.SupOf[node.ID]
			if sv < 0 {
				continue
			}
			node.EachRef(func(u *ir.Node) {
				if u.Kind == ir.KindReg || u.Kind == ir.KindInput {
					return
				}
				su := r.SupOf[u.ID]
				if su < 0 || su == sv || runOf[origLevel[su]] != runOf[origLevel[sv]] {
					return
				}
				if ra, rb := find(root, su), find(root, sv); ra != rb {
					root[rb] = ra
				}
			})
		}
	}

	// Collect components per run: member lists (ascending supernode ID, so
	// min ID is first), summed weight.
	type component struct {
		sups   []int32
		weight int64
	}
	compIdx := make(map[int32]int32, n)
	byRun := make([][]int32, v.Levels) // run -> component indices
	var comps []component
	for s := int32(0); s < int32(n); s++ {
		rt := find(root, s)
		ci, ok := compIdx[rt]
		if !ok {
			ci = int32(len(comps))
			compIdx[rt] = ci
			comps = append(comps, component{})
			byRun[runOf[origLevel[s]]] = append(byRun[runOf[origLevel[s]]], ci)
		}
		comps[ci].sups = append(comps[ci].sups, s)
		comps[ci].weight += weights[s]
	}

	// Per run, longest-processing-time assignment: heaviest component first
	// onto the least-loaded shard (ties broken toward the lower shard index
	// and the component with the smallest leading supernode, for
	// determinism).
	v.Chunks = make([][][]int32, v.Levels)
	v.ChunkWeight = make([][]int64, v.Levels)
	load := make([]int64, threads)
	for run, cis := range byRun {
		sort.Slice(cis, func(i, j int) bool {
			a, b := &comps[cis[i]], &comps[cis[j]]
			if a.weight != b.weight {
				return a.weight > b.weight
			}
			return a.sups[0] < b.sups[0]
		})
		for i := range load {
			load[i] = 0
		}
		v.Chunks[run] = make([][]int32, threads)
		for _, ci := range cis {
			c := &comps[ci]
			w := 0
			for t := 1; t < threads; t++ {
				if load[t] < load[w] {
					w = t
				}
			}
			load[w] += c.weight
			for _, s := range c.sups {
				v.ShardOf[s] = int32(w)
				v.LevelOf[s] = int32(run)
			}
			v.Chunks[run][w] = append(v.Chunks[run][w], c.sups...)
		}
		for w := 0; w < threads; w++ {
			sortInt32(v.Chunks[run][w])
		}
		v.ChunkWeight[run] = append([]int64(nil), load...)
	}
	return v
}
