// Package fleet scales gsim-serve horizontally: a stateless router places
// sessions onto replicas by consistent-hashing their design placement key (so
// one replica's compile cache serves all traffic for a design), proxies the
// /v1 API with per-session sticky routing, and live-migrates sessions off a
// replica when it drains — snapshot on the old home, restore on the new one,
// bit-identical state, stats, and waveform continuation.
//
// The package splits into the hash ring (ring.go), the replica registry and
// health model (registry.go), a typed client for the gsim-serve API
// (client.go), the routing front-end (router.go), the migration orchestrator
// (migrate.go), and the replica-side agent that registers a gsim-serve with a
// router and handles graceful termination (agent.go).
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring over replica names. Each member contributes
// vnodes points (hashes of "name#i") so load spreads evenly even with few
// replicas, and membership changes move only ~1/N of the keyspace — the
// property that keeps compile caches hot: a design keeps hashing to the same
// surviving replica when an unrelated one joins or leaves.
//
// The ring is immutable once built; the registry rebuilds it on every
// membership change (cheap at fleet sizes) so lookups need no locking beyond
// swapping the pointer. Hashing is SHA-256-based and fully deterministic:
// every router instance with the same member list computes the same ring,
// which is what makes the router stateless — a restarted router places the
// same designs on the same replicas.
type Ring struct {
	points []ringPoint // sorted by hash, ascending
}

type ringPoint struct {
	hash uint64
	name string
}

// DefaultVnodes is the number of ring points per member: it balances spread
// quality against ring size. 64 points per member keeps the max/min load
// ratio under ~1.3 for small fleets.
const DefaultVnodes = 64

// BuildRing constructs a ring from the given member names. Order of names
// does not matter.
func BuildRing(names []string) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(names)*DefaultVnodes)}
	for _, name := range names {
		for i := 0; i < DefaultVnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: hashPoint(fmt.Sprintf("%s#%d", name, i)),
				name: name,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on name so equal hashes (vanishingly rare) still order
		// deterministically across router instances.
		return r.points[i].name < r.points[j].name
	})
	return r
}

// Lookup walks the ring clockwise from key's hash and returns the first
// member for which exclude returns false. A nil exclude accepts everyone.
// Returns ok=false when the ring is empty or every member is excluded.
func (r *Ring) Lookup(key string, exclude func(name string) bool) (name string, ok bool) {
	if r == nil || len(r.points) == 0 {
		return "", false
	}
	h := hashPoint(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool)
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.name] {
			continue
		}
		seen[p.name] = true
		if exclude == nil || !exclude(p.name) {
			return p.name, true
		}
	}
	return "", false
}

// Members returns the distinct member names on the ring, sorted.
func (r *Ring) Members() []string {
	seen := make(map[string]bool)
	var names []string
	for _, p := range r.points {
		if !seen[p.name] {
			seen[p.name] = true
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// hashPoint maps a string to a ring position: the first 8 bytes of its
// SHA-256, big-endian. SHA-256 (rather than a faster non-crypto hash) keeps
// placement identical across architectures and Go versions — placement is a
// cross-process contract, not a per-process detail.
func hashPoint(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
