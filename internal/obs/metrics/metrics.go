// Package metrics aggregates routing events: Tracer tallies a run's
// obs events (the -stats summary), and a goroutine-safe registry of
// counters, gauges and power-of-two histograms with Prometheus
// text-format exposition (version 0.0.4) exposes them, meant to be
// scraped from a long-running routing service while runs are in
// flight.
//
// The registry is deliberately small and dependency-free. Metric
// handles are get-or-create: the first call with a (name, labels)
// pair allocates the series, later calls return the same handle, so
// emission sites can resolve handles once and update them with a
// single atomic add. Exposition output is deterministic: families
// sort by name, series by label signature.
//
// Naming discipline (enforced by Validate-on-create panics): names
// match [a-zA-Z_:][a-zA-Z0-9_:]*, counters end in _total, durations
// are exported as integer nanosecond counters (_ns_total) rather than
// float seconds, and label cardinality stays bounded — labels carry
// event taxonomies (event type, phase, ladder step), never net names
// or run IDs.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"overcell/internal/obs"
)

// ContentType is the HTTP Content-Type of WriteText's output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name=value pair attached to a series.
type Label struct{ Name, Value string }

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them in Prometheus text
// format. All methods are safe for concurrent use. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help string
	kind       kind
	series     map[string]any // label signature -> *Counter/*Gauge/*Histogram
	labels     map[string][]Label
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter series for (name, labels), creating it
// at zero on first use. Panics if name is invalid or already
// registered as a different kind.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return getSeries(r, name, help, kindCounter, labels, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge series for (name, labels), creating it at
// zero on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return getSeries(r, name, help, kindGauge, labels, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram series for (name, labels), creating
// it empty on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return getSeries(r, name, help, kindHistogram, labels, func() *Histogram { return &Histogram{} })
}

func getSeries[T any](r *Registry, name, help string, k kind, labels []Label, mk func() T) T {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Name) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l.Name, name))
		}
	}
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k,
			series: make(map[string]any), labels: make(map[string][]Label)}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, f.kind, k))
	}
	if s, ok := f.series[sig]; ok {
		return s.(T)
	}
	s := mk()
	f.series[sig] = s
	f.labels[sig] = append([]Label(nil), labels...)
	return s
}

// expose registers s, a series owned by the caller, under (name,
// labels). Each series is exposed once: registering the same name and
// labels again panics.
func expose[T any](r *Registry, name, help string, k kind, s T, labels ...Label) {
	if got := getSeries(r, name, help, k, labels, func() T { return s }); any(got) != any(s) {
		panic(fmt.Sprintf("metrics: %s%s already registered", name, signature(labels)))
	}
}

// validName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// signature renders labels canonically (sorted by name) for use as a
// series key and in exposition.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		writeLabelValue(&b, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// writeLabelValue quotes v with exactly the three escapes the
// exposition format defines (backslash, double quote, newline); all
// other bytes — including non-ASCII UTF-8 — pass through verbatim.
func writeLabelValue(b *strings.Builder, v string) {
	b.WriteByte('"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}

// Counter is a monotonically increasing int64. Negative deltas are
// ignored (Prometheus counters must not decrease).
type Counter struct{ v atomic.Int64 }

// Add increases the counter by n (n < 0 is dropped).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increases (or with a negative delta decreases) the gauge.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a goroutine-safe wrapper over the power-of-two
// obs.Histogram, exposed in Prometheus cumulative-bucket
// form with upper bounds 0, 1, 3, 7, ... 2^i-1, +Inf.
type Histogram struct {
	mu sync.Mutex
	h  obs.Histogram
}

// Observe records one value (negatives clamp to zero, as in obs).
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// snapshot copies the underlying histogram under the lock.
func (h *Histogram) snapshot() obs.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// WriteText renders every family in Prometheus text format, sorted by
// family name then series signature, with # HELP and # TYPE headers.
func (r *Registry) WriteText(w io.Writer) error {
	// Snapshot the family and series structure under the lock — series
	// maps grow concurrently via get-or-create — then read the values
	// atomically afterwards.
	type seriesSnap struct {
		sig    string
		labels []Label
		val    any
	}
	type famSnap struct {
		name, help string
		kind       kind
		series     []seriesSnap
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]famSnap, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		fs := famSnap{name: f.name, help: f.help, kind: f.kind}
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			fs.series = append(fs.series, seriesSnap{sig: sig, labels: f.labels[sig], val: f.series[sig]})
		}
		fams = append(fams, fs)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, sn := range f.series {
			switch s := sn.val.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, sn.sig, s.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, sn.sig, formatFloat(s.Value()))
			case *Histogram:
				writeHistogram(&b, f.name, sn.labels, s.snapshot())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket
// lines up to the highest non-empty bucket, then +Inf, _sum, _count.
func writeHistogram(b *strings.Builder, name string, labels []Label, h obs.Histogram) {
	top := -1
	for i, c := range h.Buckets {
		if c != 0 {
			top = i
		}
	}
	// The final obs bucket is open-ended (it absorbs observations past
	// 2^30), so it has no finite le and is covered by +Inf alone.
	if top == len(h.Buckets)-1 {
		top--
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += h.Buckets[i]
		// Bucket i spans [2^(i-1), 2^i - 1]; its inclusive upper bound
		// 2^i - 1 is the le value (bucket 0 holds exactly zero).
		le := int64(0)
		if i > 0 {
			le = int64(1)<<i - 1
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			signature(append(append([]Label(nil), labels...), L("le", fmt.Sprint(le)))), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name,
		signature(append(append([]Label(nil), labels...), L("le", "+Inf"))), h.N)
	fmt.Fprintf(b, "%s_sum%s %d\n", name, signature(labels), h.Sum)
	fmt.Fprintf(b, "%s_count%s %d\n", name, signature(labels), h.N)
}

// formatFloat renders a gauge value the way Prometheus expects:
// integral values without an exponent, the rest via %g.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
