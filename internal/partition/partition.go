// Package partition groups graph nodes into supernodes — the paper's
// supernode-level optimization (§III-A). Each supernode gets a single active
// bit in the Activity engine; all members are evaluated together when it is
// set.
//
// Four builders are provided, matching Table III:
//
//   - None: every node is its own supernode (the paper's "None" row).
//   - Kernighan: the classic sequential-interval partition after Kernighan
//     (JACM 1971) — a dynamic program over a topological order that chooses
//     block boundaries minimizing crossing edges under a size cap.
//   - MFFC: maximal fanout-free cones, ESSENT's partitioning style.
//   - Enhanced: GSIM's algorithm — rule-based pre-grouping of strongly
//     correlated nodes (out-degree-1 nodes with their successor, in-degree-1
//     nodes with their predecessor, same-predecessor siblings), protected
//     from separation, followed by the Kernighan interval DP over the
//     contracted graph.
//
// Correctness invariant: the supernode sequence is a topological order of
// the value-dependence condensation, so the Activity engine's single forward
// sweep per cycle never misses an intra-cycle activation. Interval partitions
// guarantee this by construction; cone- and rule-based groups are checked
// for convexity (an SCC pass on the condensation) and dissolved if they
// would create a cycle.
package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"gsim/internal/ir"
)

// Kind selects a partitioning algorithm.
type Kind uint8

// Partitioner kinds.
const (
	None Kind = iota
	Kernighan
	MFFC
	Enhanced
)

var kindNames = [...]string{"none", "kernighan", "mffc", "enhanced"}

// String returns the algorithm name.
func (k Kind) String() string { return kindNames[k] }

// ParseKind converts a name to a Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("partition: unknown kind %q", s)
}

// Result is a supernode partition of a graph's evaluable nodes.
type Result struct {
	Kind    Kind
	SupOf   []int32   // node ID -> supernode index; -1 for inputs
	Members [][]int32 // supernode -> member node IDs, ascending (= topo order)

	BuildTime time.Duration
	CutEdges  int // activation edges between distinct supernodes
	MaxSize   int
}

// Count returns the number of supernodes.
func (r *Result) Count() int { return len(r.Members) }

// AvgSize returns the mean supernode size.
func (r *Result) AvgSize() float64 {
	if len(r.Members) == 0 {
		return 0
	}
	total := 0
	for _, m := range r.Members {
		total += len(m)
	}
	return float64(total) / float64(len(r.Members))
}

// EmptyFingerprint is the Fingerprint of a partition with no supernode, the
// FNV-1a offset basis.
const EmptyFingerprint uint64 = 0xcbf29ce484222325

// Fingerprint hashes the partition's membership — every supernode's member
// node IDs, in supernode order — into 64 bits (FNV-1a). Partitions that
// agree in supernode count but not in members differ in it, which is what a
// snapshot's activity section, stored as supernode indices, must be checked
// against.
func (r *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	for _, m := range r.Members {
		put(int32(len(m)))
		for _, id := range m {
			put(id)
		}
	}
	return h.Sum64()
}

// graphView is the precomputed edge structure partitioners work on.
// Positions index the sequence of evaluable nodes in topological (== ID)
// order. Two edge relations are kept:
//
//   - dep edges: value dependences that constrain intra-cycle evaluation
//     order (excludes register read edges, which see last cycle's value);
//   - act edges: activation correlations (includes register read edges),
//     the paper's notion of "activated together".
type graphView struct {
	g   *ir.Graph
	seq []int32 // position -> node ID
	pos []int32 // node ID -> position (-1 for inputs)

	depSucc [][]int32 // position -> dep successor positions (dedup, sorted)
	actSucc [][]int32 // position -> act successor positions (no self edges)
	actPred [][]int32
}

func newGraphView(g *ir.Graph) *graphView {
	v := &graphView{g: g, pos: make([]int32, len(g.Nodes))}
	for i := range v.pos {
		v.pos[i] = -1
	}
	v.seq = dfsTopoOrder(g)
	for p, id := range v.seq {
		v.pos[id] = int32(p)
	}
	n := len(v.seq)
	v.depSucc = make([][]int32, n)
	v.actSucc = make([][]int32, n)
	v.actPred = make([][]int32, n)
	for _, node := range g.Nodes {
		vp := v.pos[node.ID]
		if vp < 0 {
			continue
		}
		seen := map[int32]bool{}
		node.EachExpr(func(slot **ir.Expr) {
			(*slot).Walk(func(e *ir.Expr) {
				if e.Op != ir.OpRef {
					return
				}
				u := e.Node
				up := v.pos[u.ID]
				if up < 0 || up == vp || seen[up] {
					return
				}
				seen[up] = true
				v.actSucc[up] = append(v.actSucc[up], vp)
				v.actPred[vp] = append(v.actPred[vp], up)
				if u.Kind != ir.KindReg {
					v.depSucc[up] = append(v.depSucc[up], vp)
				}
			})
		})
	}
	for i := 0; i < n; i++ {
		sortInt32(v.depSucc[i])
		sortInt32(v.actSucc[i])
		sortInt32(v.actPred[i])
	}
	return v
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// dfsTopoOrder returns the evaluable node IDs in a locality-preserving
// topological order: DFS reverse post-order over the dep-edge DAG. Interval
// partitions need neighboring positions to be *related* nodes — Kernighan's
// sequential method presumes such an order — and a BFS/Kahn order interleaves
// unrelated regions, which makes every interval mix strangers and inflates
// the activity factor.
func dfsTopoOrder(g *ir.Graph) []int32 {
	n := len(g.Nodes)
	// Dep successors per node (IDs), built once.
	succs := make([][]int32, n)
	indeg := make([]int32, n)
	for _, node := range g.Nodes {
		if node == nil || !node.HasCode() {
			continue
		}
		seen := map[int32]bool{}
		node.EachExpr(func(slot **ir.Expr) {
			(*slot).Walk(func(e *ir.Expr) {
				if e.Op != ir.OpRef {
					return
				}
				u := e.Node
				if u.Kind == ir.KindReg || u.Kind == ir.KindInput || u.ID == node.ID {
					return
				}
				uid := int32(u.ID)
				if !seen[uid] {
					seen[uid] = true
					succs[uid] = append(succs[uid], int32(node.ID))
					indeg[node.ID]++
				}
			})
		})
	}
	visited := make([]bool, n)
	var post []int32
	// Iterative DFS with explicit post-order emission.
	type frame struct {
		id int32
		ei int
	}
	for start, node := range g.Nodes {
		if node == nil || !node.HasCode() || visited[start] || indeg[start] != 0 {
			continue
		}
		frames := []frame{{int32(start), 0}}
		visited[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(succs[f.id]) {
				w := succs[f.id][f.ei]
				f.ei++
				if !visited[w] {
					visited[w] = true
					frames = append(frames, frame{w, 0})
				}
				continue
			}
			post = append(post, f.id)
			frames = frames[:len(frames)-1]
		}
	}
	// Unreached nodes (cycles through registers only; shouldn't happen for
	// nodes with indeg 0 roots covering a DAG, but stay safe).
	for id, node := range g.Nodes {
		if node != nil && node.HasCode() && !visited[id] {
			post = append(post, int32(id))
		}
	}
	// Reverse post-order is a topological order.
	order := make([]int32, len(post))
	for i, id := range post {
		order[len(post)-1-i] = id
	}
	return order
}

// Build partitions the graph's evaluable nodes. maxSize caps the number of
// nodes per supernode (the paper's command-line parameter, Fig. 9); values
// < 1 are treated as 1.
func Build(g *ir.Graph, kind Kind, maxSize int) *Result {
	start := time.Now()
	if maxSize < 1 {
		maxSize = 1
	}
	v := newGraphView(g)
	var groups [][]int32 // lists of positions
	switch kind {
	case None:
		groups = singletons(len(v.seq))
	case Kernighan:
		ordered := singletons(len(v.seq))
		groups = intervalDP(v, ordered, maxSize)
	case MFFC:
		groups = v.finalize(mffcGroups(v, maxSize))
	case Enhanced:
		pre := v.finalize(enhancedGroups(v, maxSize))
		groups = intervalDP(v, pre, maxSize)
	default:
		panic(fmt.Sprintf("partition: bad kind %d", kind))
	}
	r := &Result{
		Kind:    kind,
		SupOf:   make([]int32, len(g.Nodes)),
		Members: make([][]int32, len(groups)),
		MaxSize: maxSize,
	}
	for i := range r.SupOf {
		r.SupOf[i] = -1
	}
	for si, grp := range groups {
		ids := make([]int32, len(grp))
		for j, p := range grp {
			ids[j] = v.seq[p]
		}
		sortInt32(ids)
		r.Members[si] = ids
		for _, id := range ids {
			r.SupOf[id] = int32(si)
		}
	}
	// Cut metric: activation edges crossing supernodes.
	for up, succs := range v.actSucc {
		su := r.SupOf[v.seq[up]]
		for _, vp := range succs {
			if r.SupOf[v.seq[vp]] != su {
				r.CutEdges++
			}
		}
	}
	r.BuildTime = time.Since(start)
	return r
}

// Singletons is the None partition in node ID order, built without walking
// an edge: every evaluable node is its own supernode, supernode s holding
// the s-th evaluable node by ID. On a graph compacted in topological order
// (core.Build's) the ID order is the package's topological invariant. It is
// the partition the full-cycle engine's multi-worker schedule shards, which
// reads only SupOf and Members; CutEdges is not counted.
func Singletons(g *ir.Graph) *Result {
	start := time.Now()
	r := &Result{Kind: None, SupOf: make([]int32, len(g.Nodes)), MaxSize: 1}
	var ids []int32
	for id, n := range g.Nodes {
		r.SupOf[id] = -1
		if n.HasCode() {
			r.SupOf[id] = int32(len(ids))
			ids = append(ids, int32(id))
		}
	}
	r.Members = make([][]int32, len(ids))
	for s := range ids {
		r.Members[s] = ids[s : s+1 : s+1]
	}
	r.BuildTime = time.Since(start)
	return r
}

func singletons(n int) [][]int32 {
	groups := make([][]int32, n)
	for i := range groups {
		groups[i] = []int32{int32(i)}
	}
	return groups
}

// finalize takes a grouping as a union-find root array over positions,
// dissolves any group that breaks the condensation's acyclicity, and returns
// the groups ordered topologically w.r.t. dep edges.
func (v *graphView) finalize(root []int32) [][]int32 {
	n := len(v.seq)
	// Collect groups.
	index := make(map[int32]int32)
	var groups [][]int32
	groupOf := make([]int32, n)
	for p := 0; p < n; p++ {
		r := find(root, int32(p))
		gi, ok := index[r]
		if !ok {
			gi = int32(len(groups))
			index[r] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], int32(p))
		groupOf[p] = gi
	}
	// Convexity check: SCCs of the dep-edge condensation. Dissolve every
	// non-singleton group inside a multi-vertex SCC.
	scc := condensationSCC(groups, groupOf, v.depSucc)
	dissolved := false
	sccSize := map[int32]int{}
	for _, s := range scc {
		sccSize[s]++
	}
	for gi, grp := range groups {
		if len(grp) > 1 && sccSize[scc[gi]] > 1 {
			dissolved = true
			for _, p := range grp[1:] {
				root[p] = p // break the union
			}
			root[grp[0]] = grp[0]
		}
	}
	if dissolved {
		// Rebuild groups after dissolution (now guaranteed acyclic).
		for p := range root {
			find(root, int32(p))
		}
		return v.finalize(root)
	}
	// Topological order of groups (Kahn over the group dep graph).
	gN := len(groups)
	indeg := make([]int32, gN)
	gsucc := make([][]int32, gN)
	for p := 0; p < n; p++ {
		gu := groupOf[p]
		for _, q := range v.depSucc[p] {
			gv := groupOf[q]
			if gu != gv {
				gsucc[gu] = append(gsucc[gu], gv)
				indeg[gv]++
			}
		}
	}
	// Priority-queue Kahn keyed by min member position: among ready groups,
	// emit the one earliest in the locality order, so the group sequence
	// stays close to the DFS order the interval DP depends on.
	minPos := make([]int32, gN)
	for gi, grp := range groups {
		mp := grp[0]
		for _, p := range grp {
			if p < mp {
				mp = p
			}
		}
		minPos[gi] = mp
	}
	pq := &groupHeap{minPos: minPos}
	for gi := 0; gi < gN; gi++ {
		if indeg[gi] == 0 {
			pq.push(int32(gi))
		}
	}
	ordered := make([][]int32, 0, gN)
	for pq.len() > 0 {
		gu := pq.pop()
		grp := groups[gu]
		sortInt32(grp)
		ordered = append(ordered, grp)
		for _, gv := range gsucc[gu] {
			indeg[gv]--
			if indeg[gv] == 0 {
				pq.push(gv)
			}
		}
	}
	if len(ordered) != gN {
		panic("partition: group condensation still cyclic after dissolution")
	}
	return ordered
}

// find is a path-compressing union-find lookup.
func find(root []int32, x int32) int32 {
	for root[x] != x {
		root[x] = root[root[x]]
		x = root[x]
	}
	return x
}

// union merges the sets of a and b if the combined size fits the cap.
// Returns true on success.
func union(root []int32, size []int32, a, b int32, cap int32) bool {
	ra, rb := find(root, a), find(root, b)
	if ra == rb {
		return true
	}
	if size[ra]+size[rb] > cap {
		return false
	}
	if size[ra] < size[rb] {
		ra, rb = rb, ra
	}
	root[rb] = ra
	size[ra] += size[rb]
	return true
}

// condensationSCC runs an iterative Tarjan SCC over the group graph and
// returns each group's SCC ID.
func condensationSCC(groups [][]int32, groupOf []int32, depSucc [][]int32) []int32 {
	gsucc := make([][]int32, len(groups))
	for p := range depSucc {
		gu := groupOf[p]
		for _, q := range depSucc[p] {
			gv := groupOf[q]
			if gu != gv {
				gsucc[gu] = append(gsucc[gu], gv)
			}
		}
	}
	return SCC(gsucc)
}

// SCC runs an iterative Tarjan pass over the graph whose vertex v has the
// edges v -> gsucc[v], and returns each vertex's strongly connected
// component ID. IDs are numbered in completion order, a reverse topological
// order of the condensation: an edge u -> v between two components has
// id[u] > id[v].
func SCC(gsucc [][]int32) []int32 {
	gN := len(gsucc)
	const unvisited = -1
	idx := make([]int32, gN)
	low := make([]int32, gN)
	onStack := make([]bool, gN)
	sccID := make([]int32, gN)
	for i := range idx {
		idx[i] = unvisited
		sccID[i] = unvisited
	}
	var stack []int32
	var counter, nScc int32
	type frame struct {
		v  int32
		ei int
	}
	for start := 0; start < gN; start++ {
		if idx[start] != unvisited {
			continue
		}
		frames := []frame{{int32(start), 0}}
		idx[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, int32(start))
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(gsucc[f.v]) {
				w := gsucc[f.v][f.ei]
				f.ei++
				if idx[w] == unvisited {
					idx[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && idx[w] < low[f.v] {
					low[f.v] = idx[w]
				}
				continue
			}
			// post-visit
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == idx[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					sccID[w] = nScc
					if w == v {
						break
					}
				}
				nScc++
			}
		}
	}
	return sccID
}

// groupHeap is a small binary min-heap of group indices keyed by minPos.
type groupHeap struct {
	items  []int32
	minPos []int32
}

func (h *groupHeap) len() int { return len(h.items) }

func (h *groupHeap) less(a, b int32) bool { return h.minPos[a] < h.minPos[b] }

func (h *groupHeap) push(x int32) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *groupHeap) pop() int32 {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.less(h.items[l], h.items[small]) {
			small = l
		}
		if r < len(h.items) && h.less(h.items[r], h.items[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
