package fleet

import (
	"fmt"
	"net/url"
	"sort"
	"time"
)

// ReplicaState is a replica's position in its lifecycle.
type ReplicaState int

const (
	// StateReady: serving, eligible for new placements.
	StateReady ReplicaState = iota
	// StateDraining: still serving existing sessions (the migration window)
	// but excluded from placement; the router is moving its sessions off.
	StateDraining
	// StateDead: failed health checks or missed heartbeats; excluded from
	// placement and treated as unreachable.
	StateDead
)

func (s ReplicaState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Replica is one registered gsim-serve instance.
type Replica struct {
	Name  string
	URL   string // base URL, e.g. http://10.0.0.3:8080
	State ReplicaState

	base      *url.URL // URL, parsed once at registration for the proxy hop
	lastBeat  time.Time
	probeFail int // consecutive failed /readyz probes
}

// RegisterRequest is the POST /fleet/replicas body a replica sends to
// self-register (and that gsim-serve's agent sends on startup).
type RegisterRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// ReplicaInfo is the wire form of a replica in GET /fleet.
type ReplicaInfo struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	State    string `json:"state"`
	Sessions int    `json:"sessions"`
}

// register adds or refreshes a replica. Re-registering an existing name
// (a replica restarted on the same slot) resets it to ready with the new URL;
// its old sessions are gone with the old process, so the caller prunes the
// session table. Returns whether the ring membership changed. Caller holds
// rt.mu.
func (rt *Router) registerLocked(name, rawURL string, now time.Time) (membershipChanged bool) {
	r, exists := rt.replicas[name]
	if !exists {
		r = &Replica{Name: name}
		rt.replicas[name] = r
	}
	wasPlaceable := exists && r.State == StateReady
	r.URL = rawURL
	if r.base, _ = url.Parse(rawURL); r.base == nil {
		// Unparseable: every create on it fails, so no session is homed here.
		r.base = new(url.URL)
	}
	r.State = StateReady
	r.lastBeat = now
	r.probeFail = 0
	if !wasPlaceable {
		rt.rebuildRingLocked()
	}
	return !wasPlaceable
}

// rebuildRingLocked recomputes the placement ring from the ready replicas.
// Draining and dead replicas are simply absent: lookups during a drain
// naturally land on the survivors, which is exactly the "ring minus that
// replica" rerouting migration needs. Caller holds rt.mu.
func (rt *Router) rebuildRingLocked() {
	var names []string
	for name, r := range rt.replicas {
		if r.State == StateReady {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	rt.ring = BuildRing(names)
}

// heartbeatLocked refreshes a replica's liveness. Caller holds rt.mu.
func (rt *Router) heartbeatLocked(name string, now time.Time) error {
	r, ok := rt.replicas[name]
	if !ok {
		return fmt.Errorf("fleet: unknown replica %q", name)
	}
	r.lastBeat = now
	if r.State == StateDead {
		// A dead replica that heartbeats again is back (partition healed,
		// process never actually died). Its sessions were already migrated or
		// lost, so it returns empty — but placeable.
		r.State = StateReady
		r.probeFail = 0
		rt.rebuildRingLocked()
	}
	return nil
}

// expireReplicasLocked marks replicas whose heartbeat is older than the TTL
// as dead and returns them so the caller can migrate their sessions. Caller
// holds rt.mu.
func (rt *Router) expireReplicasLocked(now time.Time) []*Replica {
	if rt.cfg.HeartbeatTTL <= 0 {
		return nil
	}
	var expired []*Replica
	for _, r := range rt.replicas {
		if r.State != StateDead && now.Sub(r.lastBeat) > rt.cfg.HeartbeatTTL {
			r.State = StateDead
			expired = append(expired, r)
		}
	}
	if len(expired) > 0 {
		rt.rebuildRingLocked()
	}
	return expired
}

// replicaByName returns a snapshot (copy) of the named replica.
func (rt *Router) replicaByName(name string) (Replica, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	r, ok := rt.replicas[name]
	if !ok {
		return Replica{}, false
	}
	return *r, true
}
