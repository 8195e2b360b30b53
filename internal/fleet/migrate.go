package fleet

import (
	"fmt"
	"time"

	"gsim/internal/faultpoint"
	"gsim/internal/server"
)

// DrainReplica live-migrates every session off the named replica: the
// replica is excluded from placement, told to begin its migration-window
// drain (readyz flips, new sessions refused, existing sessions keep serving),
// and each of its sessions is snapshotted, rerouted through the ring minus
// that replica, restored on its new home, and resumed — state image, stats,
// and waveform continuation all bit-identical to an uninterrupted run.
// Returns how many sessions moved and the public IDs of any that could not.
func (rt *Router) DrainReplica(name string) (migrated int, failed []string, err error) {
	rt.mu.Lock()
	rep, ok := rt.replicas[name]
	if !ok {
		rt.mu.Unlock()
		return 0, nil, fmt.Errorf("fleet: unknown replica %q", name)
	}
	if rep.State == StateReady {
		rep.State = StateDraining
		rt.rebuildRingLocked()
	}
	repCopy := *rep
	table := rt.tableLocked()
	rt.mu.Unlock()
	victims := homedOn(table, name)

	// Idempotent; also covers the admin-triggered path where the replica
	// does not yet know it is being retired. Best-effort: a replica already
	// draining (SIGTERM path) or unreachable (dead path) changes nothing.
	_ = rt.clientFor(repCopy).beginDrain()

	rt.log().Info("drain started", "replica", name, "sessions", len(victims))
	for _, fs := range victims {
		if merr := rt.migrateSession(fs, name); merr != nil {
			rt.migrateFail.Add(1)
			if rm := rt.Metrics(); rm != nil {
				rm.MigrationsFailed.Inc()
			}
			rt.log().Error("migration failed", "session", fs.id, "from", name, "error", merr)
			failed = append(failed, fs.id)
			continue
		}
		migrated++
	}
	rt.log().Info("drain finished", "replica", name, "migrated", migrated, "failed", len(failed))
	return migrated, failed, nil
}

// migrateSession moves one session off fromReplica. It holds the session's
// write gate for the whole move, so no proxied request can observe the
// session between homes: requests block on the gate and then transparently
// land on the new home.
//
// The move is ordered so every failure mode is safe: all reads from the old
// home (waveform prefixes, per-lane snapshots) happen before anything is
// created on the new home, the new session is fully restored and re-parked
// before the routing table flips, and the old session is deleted only after
// the flip. A failure anywhere before the flip leaves the session untouched
// on its old home; a failure to delete after the flip leaks a dying session
// on a draining replica, which its final Drain reaps anyway.
func (rt *Router) migrateSession(fs *fleetSession, fromReplica string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed || fs.replica != fromReplica {
		return nil // closed or already moved by a concurrent pass
	}
	moveStart := time.Now()
	oldRep, ok := rt.replicaByName(fromReplica)
	if !ok {
		return fmt.Errorf("fleet: replica %s vanished", fromReplica)
	}
	oldC := rt.clientFor(oldRep)

	// Phase 1 — capture on the old home. The gate guarantees quiescence:
	// no proxied op can run between the waveform read and the state
	// snapshot, so the two are coherent.
	infos, err := oldC.lanes(fs.backendID)
	if err != nil {
		return fmt.Errorf("fleet: capture lanes of %s on %s: %w", fs.id, fromReplica, err)
	}
	prefixes := make(map[int][]byte)
	var tracedLanes []int
	for _, li := range infos {
		if !li.Traced {
			continue
		}
		data, _, err := oldC.vcd(fs.backendID, li.Lane)
		if err != nil {
			return fmt.Errorf("fleet: capture vcd lane %d of %s: %w", li.Lane, fs.id, err)
		}
		prefixes[li.Lane] = data
		tracedLanes = append(tracedLanes, li.Lane)
	}
	var moved uint64
	blobKeys := make([]string, 0, len(infos))
	defer func() {
		for _, k := range blobKeys {
			rt.store.Unpin(k)
		}
	}()
	for _, li := range infos {
		blob, err := oldC.snapshotLane(fs.backendID, li.Lane)
		if err != nil {
			return fmt.Errorf("fleet: snapshot lane %d of %s: %w", li.Lane, fs.id, err)
		}
		// The handoff: pinned in the store for the duration of the move and
		// read back, content-verified, for the restore. Dedup collapses
		// identical lane images (fresh gangs, retried migrations) and the pin
		// shields them from budget eviction mid-move.
		blobKeys = append(blobKeys, rt.store.PutPinned(blob))
		moved += uint64(len(blob))
	}
	if faultpoint.Hit(faultpoint.HandoffCorrupt) {
		rt.store.Damage(blobKeys[len(blobKeys)-1])
	}
	src, err := rt.store.Get(fs.sourceKey)
	if err != nil {
		return fmt.Errorf("fleet: source of %s: %w", fs.id, err)
	}

	// Phase 2 — recreate on a new home, with retry/backoff over the ring
	// minus the draining replica. A target that refuses (it raced into its
	// own drain, or is at capacity) is excluded and the ring re-resolved.
	spec := fs.spec
	spec.TraceLanes = tracedLanes
	spec.TraceResume = len(tracedLanes) > 0
	exclude := map[string]bool{fromReplica: true}
	var lastErr error
	for attempt := 0; attempt <= rt.cfg.MigrationRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(rt.cfg.RetryBackoff << (attempt - 1))
		}
		newRep, ok := rt.pickReplica(fs.placeKey, exclude)
		if !ok {
			lastErr = fmt.Errorf("fleet: no ready replica outside %v", exclude)
			continue // membership may recover within the retry budget
		}
		newC := rt.clientFor(newRep)
		created, err := newC.create(server.CreateRequest{FIRRTL: string(src), SessionSpec: spec})
		if err != nil {
			lastErr = err
			if retryableStatus(err) {
				exclude[newRep.Name] = true
				continue
			}
			return fmt.Errorf("fleet: recreate %s on %s: %w", fs.id, newRep.Name, err)
		}
		if err := rt.restoreOnto(newC, created.Session, infos, blobKeys, prefixes); err != nil {
			// Half-restored target: destroy it and fail the move rather than
			// flip routing onto a session in an unknown state.
			_ = newC.deleteSession(created.Session)
			return fmt.Errorf("fleet: restore %s on %s: %w", fs.id, newRep.Name, err)
		}

		// Phase 3 — flip routing, then retire the old incarnation.
		oldBackend := fs.backendID
		fs.replica = newRep.Name
		fs.base = newRep.base
		fs.backendID = created.Session
		fs.designHash = created.DesignHash
		_ = oldC.deleteSession(oldBackend)
		rt.migrated.Add(1)
		for _, p := range prefixes {
			moved += uint64(len(p))
		}
		elapsed := time.Since(moveStart)
		if rm := rt.Metrics(); rm != nil {
			rm.MigrationsOK.Inc()
			rm.MigrationSeconds.Observe(elapsed.Seconds())
			rm.MigrationBytes.Add(moved)
		}
		rt.log().Info("session migrated",
			"session", fs.id, "from", fromReplica, "to", newRep.Name,
			"lanes", len(infos), "bytes", moved,
			"duration_ms", float64(elapsed.Microseconds())/1000)
		return nil
	}
	return fmt.Errorf("fleet: migrate %s off %s: no target after %d attempts: %v",
		fs.id, fromReplica, rt.cfg.MigrationRetries+1, lastErr)
}

// restoreOnto replays the captured lanes into the freshly created session:
// restore each lane's state blob, read from the handoff store (traced lanes
// also carry their waveform prefix, arming the resume tracer), then re-park
// the lanes that were parked at capture so the gang's live mask survives the
// move. A scalar session's one lane is always live, so it never re-parks.
func (rt *Router) restoreOnto(c *replicaClient, backendID string, infos []server.LaneInfo, blobKeys []string, prefixes map[int][]byte) error {
	for i, li := range infos {
		blob, err := rt.store.Get(blobKeys[i])
		if err != nil {
			return fmt.Errorf("handoff of lane %d: %w", li.Lane, err)
		}
		if faultpoint.Hit(faultpoint.FleetRestoreFail) {
			return fmt.Errorf("restore lane %d: injected refusal (faultpoint %s)", li.Lane, faultpoint.FleetRestoreFail)
		}
		if err := c.restoreLane(backendID, li.Lane, blob, prefixes[li.Lane]); err != nil {
			return fmt.Errorf("restore lane %d: %w", li.Lane, err)
		}
	}
	var parks []server.Op
	for _, li := range infos {
		if !li.Live {
			lane := li.Lane
			parks = append(parks, server.Op{Op: "park", Lane: &lane})
		}
	}
	if len(parks) > 0 {
		if err := c.applyOps(backendID, parks); err != nil {
			return fmt.Errorf("re-park lanes: %w", err)
		}
	}
	return nil
}

// Reinstate returns a drained replica to placement rotation (the counterpart
// of DrainReplica for planned maintenance bounces: drain, update, reinstate).
// The replica must be reachable and not draining at the server level — its
// manager refuses sessions once draining, so reinstating a still-draining
// process would only bounce creates. Fails if the replica's /readyz says it
// cannot take work.
func (rt *Router) Reinstate(name string) error {
	rt.mu.Lock()
	rep, ok := rt.replicas[name]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("fleet: unknown replica %q", name)
	}
	repCopy := *rep
	rt.mu.Unlock()
	if !rt.clientFor(repCopy).ready() {
		return fmt.Errorf("fleet: replica %s is not ready (still draining or unreachable)", name)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rep, ok = rt.replicas[name]
	if !ok {
		return fmt.Errorf("fleet: replica %q vanished", name)
	}
	rep.State = StateReady
	rep.probeFail = 0
	rep.lastBeat = time.Now()
	rt.rebuildRingLocked()
	return nil
}
