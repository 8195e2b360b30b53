// Observability for the fleet router: placement, proxy, membership, and
// migration metrics, the snapshot handoff store's bundle, and structured
// logging for the control-plane events an operator pages on.
package fleet

import (
	"log/slog"
	"time"

	"gsim/internal/obs"
	"gsim/internal/snapshot"
)

// RouterMetrics is the router-layer observability bundle. Built by
// Router.InitObs; nil on an uninstrumented router.
type RouterMetrics struct {
	reg *obs.Registry

	// Store is the snapshot handoff store's bundle (puts/gets/evictions,
	// resident and pinned bytes).
	Store *snapshot.StoreMetrics

	PlacementLookups *obs.Counter
	ProxyLatency     *obs.Histogram
	SessionsLost     *obs.Counter

	MigrationsOK     *obs.Counter
	MigrationsFailed *obs.Counter
	MigrationSeconds *obs.Histogram
	MigrationBytes   *obs.Counter
}

// Registry returns the registry this bundle registered into.
func (rm *RouterMetrics) Registry() *obs.Registry { return rm.reg }

// InitObs instruments the router: the fleet metric family registers in r,
// the handoff store starts crediting its bundle, and Handler() gains a
// GET /metrics route serving r.
func (rt *Router) InitObs(r *obs.Registry) *RouterMetrics {
	rm := &RouterMetrics{
		reg:   r,
		Store: snapshot.NewStoreMetrics(r),

		PlacementLookups: r.Counter("gsim_fleet_placement_lookups_total", "Consistent-hash placement resolutions."),
		ProxyLatency:     r.Histogram("gsim_fleet_proxy_latency_seconds", "Round-trip time of requests proxied to replicas.", nil),
		SessionsLost:     r.Counter("gsim_fleet_sessions_lost_total", "Sessions dropped because their home replica died."),

		MigrationsOK:     r.Counter("gsim_fleet_migrations_total", "Session migrations, by outcome.", obs.L("outcome", "success")),
		MigrationsFailed: r.Counter("gsim_fleet_migrations_total", "Session migrations, by outcome.", obs.L("outcome", "failed")),
		MigrationSeconds: r.Histogram("gsim_fleet_migration_duration_seconds", "Wall time of each successful session migration.", nil),
		MigrationBytes:   r.Counter("gsim_fleet_migration_bytes_total", "Snapshot and waveform bytes moved by successful migrations."),
	}
	r.GaugeFunc("gsim_fleet_replicas", "Registered replicas (any state).", func() float64 {
		n, _ := rt.replicaCounts()
		return float64(n)
	})
	r.GaugeFunc("gsim_fleet_replicas_ready", "Replicas eligible for placement.", func() float64 {
		_, ready := rt.replicaCounts()
		return float64(ready)
	})
	r.GaugeFunc("gsim_fleet_sessions", "Sessions in the routing table.", func() float64 {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return float64(len(rt.sessions))
	})
	r.GaugeFunc("gsim_fleet_heartbeat_lag_seconds", "Age of the stalest live replica heartbeat.", func() float64 {
		return rt.heartbeatLag(time.Now()).Seconds()
	})
	rt.store.SetObs(rm.Store)
	rt.metrics.Store(rm)
	return rm
}

// Metrics returns the bundle attached by InitObs, or nil.
func (rt *Router) Metrics() *RouterMetrics { return rt.metrics.Load() }

// SetLogger routes the router's structured logging through l (default
// obs.NopLogger(); nil resets to it).
func (rt *Router) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.NopLogger()
	}
	rt.logger.Store(l)
}

// log returns the router's logger (never nil).
func (rt *Router) log() *slog.Logger { return rt.logger.Load() }

// replicaCounts reports total and ready replicas.
func (rt *Router) replicaCounts() (total, ready int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, rep := range rt.replicas {
		total++
		if rep.State == StateReady {
			ready++
		}
	}
	return total, ready
}

// heartbeatLag is the age of the stalest heartbeat among non-dead replicas —
// the early-warning signal that precedes a TTL expiry. Zero with no live
// replicas.
func (rt *Router) heartbeatLag(now time.Time) time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var worst time.Duration
	for _, rep := range rt.replicas {
		if rep.State == StateDead {
			continue
		}
		if lag := now.Sub(rep.lastBeat); lag > worst {
			worst = lag
		}
	}
	return worst
}
