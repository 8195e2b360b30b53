package obs

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates what a family holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one (family, label-set) instance.
type series struct {
	sig    string // canonical sorted {k="v",...} form; "" for unlabeled
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
	labels []Label
}

// family groups every series registered under one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histogram families only
	series  map[string]*series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format.
//
// Registration is idempotent: asking for a series that already exists with an
// identical spec returns the existing instance, so component bundles can be
// constructed repeatedly against one process-global registry (every Manager,
// Router, or test harness sharing it observes the same series). A respec —
// same name with a different type, help string, or bucket layout — panics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Default is the process-global registry the binaries expose on /metrics.
var Default = NewRegistry()

// nameRE is the charset this repo enforces for metric names — deliberately
// tighter than Prometheus' own grammar (TestMetricNameLint pins the gsim_
// prefix on top of it).
var nameRE = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)

// lookup finds or creates the (family, series) slot, enforcing spec
// consistency. Caller does NOT hold r.mu.
func (r *Registry) lookup(name, help string, kind metricKind, buckets []float64, labels []Label) *series {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: map[string]*series{}}
		r.families[name] = f
	} else {
		if f.kind != kind || f.help != help || !equalBuckets(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a conflicting spec", name))
		}
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{sig: sig, labels: append([]Label(nil), labels...)}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			h := &Histogram{uppers: append([]float64(nil), buckets...)}
			sort.Float64s(h.uppers)
			h.counts = make([]atomic.Uint64, len(h.uppers))
			s.h = h
		}
		f.series[sig] = s
	}
	return s
}

func equalBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, nil, labels).c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, nil, labels).g
}

// GaugeFunc registers a gauge whose value is computed at scrape time. Re-
// registering the same series replaces the callback (last writer wins), so a
// restartable component can re-point the gauge at its live instance.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.setFunc(kindGaugeFunc, name, help, fn, labels)
}

// CounterFunc is GaugeFunc for a monotonic total something else already
// keeps (the Go runtime's, say): same scrape-time callback, typed counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.setFunc(kindCounterFunc, name, help, fn, labels)
}

func (r *Registry) setFunc(kind metricKind, name, help string, fn func() float64, labels []Label) {
	s := r.lookup(name, help, kind, nil, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram registers (or returns the existing) histogram series. A nil or
// empty buckets slice selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return r.lookup(name, help, kindHistogram, buckets, labels).h
}

// Names returns every registered family name, sorted. The metric-name lint
// test walks this.
func (r *Registry) Names() []string {
	r.mu.Lock()
	out := make([]string, 0, len(r.families))
	for n := range r.families {
		out = append(out, n)
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

// WriteTo renders the registry in the Prometheus text exposition format:
// families sorted by name, series sorted by label signature, histograms as
// cumulative _bucket/_sum/_count expansions.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	fams := r.gather()
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)

	var sb strings.Builder
	for _, name := range names {
		f := fams[name]
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.kind)
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := f.series[sig]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, sig, fmtVal(float64(s.c.Value())))
			case kindGauge:
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, sig, fmtVal(s.g.Value()))
			case kindGaugeFunc, kindCounterFunc:
				var v float64
				if s.fn != nil {
					v = s.fn()
				}
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, sig, fmtVal(v))
			case kindHistogram:
				cum, sum, count := s.h.snapshot()
				for i, ub := range s.h.uppers {
					fmt.Fprintf(&sb, "%s_bucket%s %d\n", f.name, withLE(sig, fmtVal(ub)), cum[i])
				}
				fmt.Fprintf(&sb, "%s_bucket%s %d\n", f.name, withLE(sig, "+Inf"), cum[len(s.h.uppers)])
				fmt.Fprintf(&sb, "%s_sum%s %s\n", f.name, sig, fmtVal(sum))
				fmt.Fprintf(&sb, "%s_count%s %d\n", f.name, sig, count)
			}
		}
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// gather copies the families and their series maps under the lock, so a
// scrape renders a consistent set while registration goes on.
func (r *Registry) gather() map[string]*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make(map[string]*family, len(r.families))
	for name, f := range r.families {
		fams[name] = &family{name: f.name, help: f.help, kind: f.kind, buckets: f.buckets, series: maps.Clone(f.series)}
	}
	return fams
}

// withLE splices le="v" into an existing label signature (or creates one).
func withLE(sig, le string) string {
	if sig == "" {
		return `{le="` + le + `"}`
	}
	return sig[:len(sig)-1] + `,le="` + le + `"}`
}

// fmtVal renders a float the way Prometheus clients do: integral values
// without an exponent, everything else in shortest-round-trip form.
func fmtVal(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ContentType is the exposition-format content type /metrics responds with.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the registry as /metrics text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_, _ = r.WriteTo(w)
	})
}
