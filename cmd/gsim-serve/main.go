// Command gsim-serve runs the simulation service: a long-lived HTTP server
// multiplexing many concurrent simulator sessions over a compiled-design
// cache, so one expensive compile (graph passes, partitioning, kernel
// fusion) serves any number of sessions and survives across them.
//
// Usage:
//
//	gsim-serve [-addr host:port] [-drain-timeout 10s]
//	           [-max-sessions N] [-max-inflight N] [-max-step-batch N]
//	           [-op-timeout D] [-session-idle-timeout D] [-cache-budget-mb N]
//	           [-max-body-bytes N]
//	           [-read-header-timeout D] [-read-timeout D] [-http-idle-timeout D]
//	           [-router URL] [-advertise URL] [-name NAME]
//	           [-log-format text|json] [-log-level debug|info|warn|error] [-pprof]
//
// API (JSON; see internal/server):
//
//	POST   /v1/sessions               {"firrtl": "...", "engine": "gsim", "threads": 0,
//	                                   "coarsen": false, "lanes": 8, "trace_lanes": [0,3]}
//	                                   (a body naming the removed "eval" field gets a 400)
//	GET    /v1/sessions               list live sessions
//	POST   /v1/sessions/{id}/ops      {"ops": [{"op":"poke","name":"en","value":"1","lane":2},
//	                                           {"op":"step","n":100},
//	                                           {"op":"park","lane":2},
//	                                           {"op":"peek","name":"out","lane":2}]}
//	GET    /v1/sessions/{id}/lanes    per-lane liveness, cycles, trace status
//	GET    /v1/sessions/{id}/vcd      a traced lane's waveform (?lane=N)
//	POST   /v1/sessions/{id}/snapshot serialize complete state (base64; ?lane=N on gangs)
//	POST   /v1/sessions/{id}/restore  {"snapshot": "<base64>"} (?lane=N on gangs)
//	DELETE /v1/sessions/{id}          close a session
//	GET    /v1/stats                  sessions, designs, cache + admission counters
//	GET    /metrics                   Prometheus text exposition (all layers)
//	GET    /healthz                   liveness
//	GET    /readyz                    readiness (503 the moment a drain begins)
//	POST   /admin/drain               begin a migration-window drain (refuse new
//	                                  sessions, keep serving existing ones)
//
// "lanes": K > 1 opens a gang session: K independent stimulus lanes, each an
// engine of the spec's kind over the design's one shared plan. Ops address
// lanes via "lane"; step advances every live lane in lockstep; park/wake
// freeze and resume individual lanes.
//
// Admission refusals return 429/503 with a Retry-After header; a session
// poisoned by an internal panic returns 500 and must be closed and
// re-created. On SIGINT/SIGTERM the server drains gracefully: readiness goes
// 503, new sessions are refused, in-flight op batches are canceled at their
// next chunk boundary, every session's engine is closed (all bounded by
// -drain-timeout), and the process exits.
//
// Fleet mode: -router points at a gsim-router (see cmd/gsim-router) and
// -advertise is the URL other processes reach this replica at. The replica
// self-registers, heartbeats, and on SIGINT/SIGTERM retires gracefully:
// readiness flips to 503 immediately, the router is asked to live-migrate
// every session away (state, stats, and waveforms continue bit-identically
// on their new homes), and only then does the local drain reap what is left.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gsim/internal/fleet"
	"gsim/internal/obs"
	"gsim/internal/server"
)

// withPprof mounts the net/http/pprof profiling handlers beside the API.
// Shared by gsim-serve and gsim-router (via a copy) so -pprof means the same
// thing on both binaries.
func withPprof(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", api)
	return mux
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "maximum time to wait for in-flight requests and session closes on shutdown")

	// Admission control and resource governance (0 = unlimited/disabled).
	maxSessions := flag.Int("max-sessions", 0, "maximum live sessions (503 beyond)")
	maxInflight := flag.Int("max-inflight", 0, "maximum concurrently executing op batches (429 beyond)")
	maxStepBatch := flag.Int("max-step-batch", 0, "maximum step cycles one ops batch may request (429 beyond)")
	opTimeout := flag.Duration("op-timeout", 0, "per-request deadline for an ops batch (aborts at the next step chunk)")
	idleTimeout := flag.Duration("session-idle-timeout", 0, "close sessions with no operations for this long")
	cacheBudgetMB := flag.Int64("cache-budget-mb", 0, "compile-cache byte budget in MiB; cold designs evict LRU-first, designs with live sessions are pinned")
	maxBodyBytes := flag.Int64("max-body-bytes", server.DefaultMaxBodyBytes, "maximum HTTP request body size (413 beyond; negative = unlimited)")

	// HTTP hygiene: slow-client (slowloris) protection. These bound how long
	// a connection may dribble its headers/body, not how long an op runs —
	// long step batches are governed by -op-timeout instead, so there is
	// deliberately no WriteTimeout.
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "maximum time to read a request's headers")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "maximum time to read a full request including body")
	httpIdleTimeout := flag.Duration("http-idle-timeout", 2*time.Minute, "keep-alive timeout for idle connections")

	// Fleet mode: register with a gsim-router so sessions are placed here by
	// design affinity and migrated away on graceful termination.
	routerURL := flag.String("router", "", "gsim-router base URL to register with (empty = standalone)")
	advertise := flag.String("advertise", "", "base URL other processes reach this replica at (default http://<resolved addr>)")
	name := flag.String("name", "", "replica name in the fleet registry (default the advertised address)")

	// Observability: structured logging, Prometheus metrics, profiling.
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.Parse()

	mgr := server.NewManagerLimits(server.Limits{
		MaxSessions:      *maxSessions,
		MaxInFlightOps:   *maxInflight,
		MaxStepsPerBatch: *maxStepBatch,
		OpTimeout:        *opTimeout,
		IdleTimeout:      *idleTimeout,
		CacheBudgetBytes: *cacheBudgetMB << 20,
		MaxBodyBytes:     *maxBodyBytes,
	})
	mgr.SetLogger(obs.NewLogger(os.Stderr, *logFormat, *logLevel))
	mgr.InitObs(obs.Default)
	obs.RegisterProcessMetrics(obs.Default)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsim-serve:", err)
		os.Exit(1)
	}
	// The resolved address line is machine-readable on purpose: the smoke
	// harness starts the binary with -addr 127.0.0.1:0 and scrapes the port.
	fmt.Printf("gsim-serve listening on http://%s\n", ln.Addr())

	handler := mgr.Handler()
	if *enablePprof {
		handler = withPprof(handler)
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *httpIdleTimeout,
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// Installed before the replica announces itself: a SIGTERM that follows
	// the "registered" line must find the drain handler, not the default one.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var agent *fleet.Agent
	if *routerURL != "" {
		self := *advertise
		if self == "" {
			self = fmt.Sprintf("http://%s", ln.Addr())
		}
		replicaName := *name
		if replicaName == "" {
			replicaName = self
		}
		agent = &fleet.Agent{
			RouterURL: *routerURL,
			Name:      replicaName,
			SelfURL:   self,
			Manager:   mgr,
		}
		regCtx, regCancel := context.WithTimeout(context.Background(), time.Minute)
		if err := agent.Start(regCtx); err != nil {
			fmt.Fprintln(os.Stderr, "gsim-serve: fleet registration:", err)
		} else {
			fmt.Printf("gsim-serve: registered with router %s as %s\n", *routerURL, replicaName)
		}
		regCancel()
	}

	select {
	case s := <-sig:
		fmt.Printf("gsim-serve: %v, draining (%d sessions)\n", s, mgr.SessionCount())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if agent != nil {
			// Graceful retirement: the router live-migrates every session
			// homed here before the local drain destroys anything.
			if err := agent.Retire(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "gsim-serve: retire:", err)
			} else {
				fmt.Println("gsim-serve: all sessions migrated away")
			}
			agent.Stop()
		}
		// Drain sessions first (force-cancels in-flight chunked ops so their
		// HTTP requests finish), then shut the listener down within the same
		// deadline.
		if err := mgr.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "gsim-serve: drain:", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "gsim-serve: shutdown:", err)
		}
		cancel()
		cs := mgr.CacheStats()
		fmt.Printf("gsim-serve: drained; compile cache served %d hits / %d misses over %d designs\n", cs.Hits, cs.Misses, cs.Designs)
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "gsim-serve:", err)
			os.Exit(1)
		}
	}
}
