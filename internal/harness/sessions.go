package harness

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"gsim/internal/ir"
	"gsim/internal/server"
)

// SessionsRow is one cell of the service-level experiment: how the session
// server multiplexes N concurrent sessions of one design over a single
// cached compile. It is the sessions/s analogue of the paper's kHz tables —
// the quantity the ROADMAP's serve-heavy-traffic goal is measured by.
type SessionsRow struct {
	Design    string
	Sessions  int
	CompileMS float64 // the one cold compile every session shares
	CreatePS  float64 // warm-cache session creations per second
	AggKHz    float64 // aggregate step throughput across all sessions
	PerKHz    float64 // AggKHz / Sessions
	HitRate   float64 // compile-cache hit rate over the cell's creations
}

// sessionStim picks the design's first non-reset input to toggle each batch,
// keeping the essential-signal engines from measuring an all-idle circuit.
func sessionStim(g *ir.Graph) string {
	for _, n := range g.Nodes {
		if n.Kind == ir.KindInput && n.Name != "reset" {
			return n.Name
		}
	}
	return ""
}

// SessionsSweep measures the session server in-process (no HTTP): for each
// design and session count, one manager compiles the design once, opens N
// sessions over the shared artifact, and all N step concurrently in batched
// ops with a toggling input. Budget scales the cycle count.
func SessionsSweep(designs []Design, counts []int, b Budget) ([]SessionsRow, error) {
	var rows []SessionsRow
	for _, d := range designs {
		g, _, err := d.Build(WorkloadCoreMark)
		if err != nil {
			return nil, err
		}
		for _, n := range counts {
			mgr := server.NewManager()
			key := d.Name + "/" + WorkloadCoreMark

			// Cold create compiles; it is the cost every later session shares.
			first, err := mgr.CreateSessionGraph(g, key, server.SessionSpec{})
			if err != nil {
				return nil, err
			}
			compileMS := float64(first.Design.CompileTime.Microseconds()) / 1000

			// Warm-cache creation rate.
			const warmCreates = 32
			start := time.Now()
			for i := 0; i < warmCreates; i++ {
				s, err := mgr.CreateSessionGraph(g, key, server.SessionSpec{})
				if err != nil {
					return nil, err
				}
				s.Close()
			}
			createPS := warmCreates / time.Since(start).Seconds()

			// n concurrent sessions stepping batched cycles.
			sessions := []*server.Session{first}
			for len(sessions) < n {
				s, err := mgr.CreateSessionGraph(g, key, server.SessionSpec{})
				if err != nil {
					return nil, err
				}
				sessions = append(sessions, s)
			}
			stimName := sessionStim(g)
			cycles := b.TimedCycles
			const batch = 10
			start = time.Now()
			var wg sync.WaitGroup
			errCh := make(chan error, n)
			for _, s := range sessions {
				wg.Add(1)
				go func(s *server.Session) {
					defer wg.Done()
					for c := 0; c < cycles; c += batch {
						ops := []server.Op{}
						if stimName != "" {
							ops = append(ops, server.Op{Op: "poke", Name: stimName, Value: fmt.Sprintf("%d", (c/batch)&1)})
						}
						ops = append(ops, server.Op{Op: "step", N: batch})
						if _, err := s.Apply(context.Background(), ops); err != nil {
							errCh <- err
							return
						}
					}
				}(s)
			}
			wg.Wait()
			elapsed := time.Since(start).Seconds()
			close(errCh)
			for err := range errCh {
				return nil, err
			}
			agg := float64(n*cycles) / elapsed / 1000

			cstats := mgr.CacheStats()
			hits, misses := cstats.Hits, cstats.Misses
			if err := mgr.Drain(context.Background()); err != nil {
				return nil, err
			}
			rows = append(rows, SessionsRow{
				Design:    d.Name,
				Sessions:  n,
				CompileMS: compileMS,
				CreatePS:  createPS,
				AggKHz:    agg,
				PerKHz:    agg / float64(n),
				HitRate:   float64(hits) / float64(hits+misses),
			})
		}
	}
	return rows, nil
}

// RenderSessions prints the sweep in the repo's table style.
func RenderSessions(w io.Writer, rows []SessionsRow) {
	fmt.Fprintf(w, "%-14s %9s %11s %11s %10s %10s %8s\n",
		"design", "sessions", "compile", "creates/s", "agg kHz", "kHz/sess", "hit%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %9d %9.1fms %11.0f %10.1f %10.1f %7.1f%%\n",
			r.Design, r.Sessions, r.CompileMS, r.CreatePS, r.AggKHz, r.PerKHz, 100*r.HitRate)
	}
}
