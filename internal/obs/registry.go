package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be >= 0 for the Prometheus
// contract; the type does not enforce it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (live sessions, queue
// depth).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Label is one key="value" pair attached to a metric.
type Label struct{ Key, Value string }

// metric is one registered series: exactly one of counter/gauge/hist/fn
// is set.
type metric struct {
	name   string // family name, e.g. "priste_steps_served_total"
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels string // rendered `{k="v",...}` or ""

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// Registry is a process-local metric registry: atomic counters, gauges
// and histograms registered once at startup and rendered on demand in
// the Prometheus text exposition format by Handler. Registration takes a
// lock; reads and metric updates never do.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// renderLabels renders a deterministic `{k="v",...}` suffix.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.mu.Unlock()
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(&metric{name: name, help: help, typ: "counter", labels: renderLabels(labels), counter: c})
	return c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.add(&metric{name: name, help: help, typ: "gauge", labels: renderLabels(labels), gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the bridge for state owned elsewhere (runtime stats, cache entry
// counts).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(&metric{name: name, help: help, typ: "gauge", labels: renderLabels(labels), fn: fn})
}

// CounterFunc registers a counter whose value is read at scrape time
// from state owned elsewhere; fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(&metric{name: name, help: help, typ: "counter", labels: renderLabels(labels), fn: fn})
}

// Histogram registers and returns a histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	r.add(&metric{name: name, help: help, typ: "histogram", labels: renderLabels(labels), hist: h})
	return h
}

// WriteText renders every registered series in the Prometheus text
// exposition format (version 0.0.4), sorted by family name then label
// set, with one HELP/TYPE header per family.
func (r *Registry) WriteText(w *strings.Builder) {
	r.mu.Lock()
	ms := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})
	lastFamily := ""
	for _, m := range ms {
		if m.name != lastFamily {
			if m.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
			lastFamily = m.name
		}
		switch {
		case m.counter != nil:
			fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.counter.Load())
		case m.gauge != nil:
			fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.gauge.Load())
		case m.fn != nil:
			fmt.Fprintf(w, "%s%s %g\n", m.name, m.labels, m.fn())
		case m.hist != nil:
			writeHistogram(w, m)
		}
	}
}

// writeHistogram renders one histogram as cumulative _bucket series with
// le bounds in seconds, plus _sum (seconds) and _count.
func writeHistogram(w *strings.Builder, m *metric) {
	counts, total, sum := m.hist.cumulative()
	sep, close := "{", "}"
	if m.labels != "" {
		sep, close = m.labels[:len(m.labels)-1]+",", "}"
	}
	for i, c := range counts {
		fmt.Fprintf(w, "%s_bucket%sle=%q%s %d\n", m.name, sep, formatSeconds(expoBounds[i]), close, c)
	}
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"%s %d\n", m.name, sep, close, total)
	fmt.Fprintf(w, "%s_sum%s %g\n", m.name, m.labels, float64(sum)/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, total)
}

// formatSeconds renders a nanosecond bound as seconds.
func formatSeconds(ns int64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", float64(ns)/1e9), "0"), ".")
}

// Handler returns the /metricsz scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		r.WriteText(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}
