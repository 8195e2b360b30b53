package obs

import (
	"runtime"
	"sync"
)

// RegisterProcessMetrics adds the Go-runtime series every gsim binary
// exports: goroutine count, live heap bytes, and the two totals that say what
// the garbage costs — bytes allocated and collections run (divide their
// rates by the request rate for bytes per request and requests per
// collection; gsim-diag -live does). Evaluation happens at scrape time, so
// the values are current without a sampler goroutine. ReadMemStats stops the
// world briefly; at scrape cadence (seconds) that is noise, which is why
// these are scrape-time funcs rather than hot-path counters — and why the
// three memory series share one reading per scrape. Idempotent per registry.
func RegisterProcessMetrics(r *Registry) {
	r.GaugeFunc("gsim_go_goroutines", "Live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	// A scrape evaluates each series once. A series asked a second time
	// since the last reading therefore belongs to a new scrape and takes a
	// fresh reading, which the other two then share.
	var (
		mu   sync.Mutex
		ms   runtime.MemStats
		seen = [3]bool{true, true, true} // nothing read yet: whoever asks first reads
	)
	memStat := func(i int, field func(*runtime.MemStats) uint64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			if seen[i] {
				runtime.ReadMemStats(&ms)
				seen = [3]bool{}
			}
			seen[i] = true
			return float64(field(&ms))
		}
	}
	r.GaugeFunc("gsim_go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		memStat(0, func(m *runtime.MemStats) uint64 { return m.HeapAlloc }))
	r.CounterFunc("gsim_go_alloc_bytes_total", "Cumulative bytes allocated for heap objects.",
		memStat(1, func(m *runtime.MemStats) uint64 { return m.TotalAlloc }))
	r.CounterFunc("gsim_go_gc_cycles_total", "Completed garbage collections.",
		memStat(2, func(m *runtime.MemStats) uint64 { return uint64(m.NumGC) }))
}
