// Package telemetry is the observability layer for the simulator and the
// cluster engine: a registry of counters, gauges, and fixed-bucket
// histograms, a tick-driven sampler that turns the registry into bounded
// time-series rows, span-style phase timers, and Prometheus/JSON/CSV
// export surfaces.
//
// Counters and gauges hold no values: each registers a read function over
// state its owner already keeps (a simulator field, the gate statistics,
// the exit collector), and every Snapshot and sampler row calls it. There
// is one copy of every count, so a snapshot taken at any point agrees with
// the owner's own accessors, and the hot path pays nothing for scalars.
//
// Histograms are the one stateful probe, and they keep the
// zero-cost-when-disabled contract: a nil *Registry hands out nil
// histograms whose methods are nil-receiver no-ops, so the instrumented
// code runs the exact same instructions (an inlined nil check) with zero
// allocations and zero behavior change. Goldens and allocation baselines
// recorded with telemetry off therefore stay byte-identical.
//
// The contract that keeps the parallel driver deterministic is sharding:
// registries are NOT synchronized, and read functions touch their owner's
// state without locks. Each goroutine owns its own Registry (the engine
// shard, one shard per DC simulator) and ticks its own sampler from its
// own event sequence; shards are only read or merged at barriers, when
// the owning goroutine is quiescent. No hot-path atomics, nothing for the
// race detector to find.
package telemetry

import "sort"

// Kind distinguishes scalar metric flavors in snapshots and export.
type Kind int

const (
	// KindCounter is a monotonically increasing event count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous level that can move both ways.
	KindGauge
)

func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Histogram is a fixed-bucket histogram: counts[i] tallies observations
// v <= bounds[i], and the final bucket is the implicit +Inf overflow.
// Buckets are fixed at registration; Observe is a linear scan over a
// handful of bounds — no allocation, no atomics, nil-safe.
type Histogram struct {
	name   string
	help   string
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

// Observe records one value (no-op on a nil receiver).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// scalar is one registered counter or gauge: a read of state its owner
// keeps, evaluated at every snapshot and sampler row.
type scalar struct {
	name string
	help string
	kind Kind
	read func() float64
}

// Registry owns one shard's metrics. It is not synchronized: exactly one
// goroutine registers and snapshots it (the goroutine that owns the state
// its read functions touch), and other goroutines may only look via
// Snapshot results taken at barriers. A nil *Registry is the
// disabled state — registration is a no-op, histograms come back nil, and
// snapshots are empty.
type Registry struct {
	scalars []scalar
	hists   []*Histogram
	names   map[string]bool
}

// NewRegistry builds an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) claim(name string) {
	if name == "" || r.names[name] {
		panic("telemetry: duplicate or empty metric name " + name)
	}
	r.names[name] = true
}

// Counter registers a counter whose cumulative value read returns. The
// registry keeps no copy: every snapshot and sampler row calls read, so
// the registry always agrees with the owner's own accessors. No-op on a
// nil registry; panics on a duplicate name, which is a programming error.
func (r *Registry) Counter(name, help string, read func() int64) {
	r.add(name, help, KindCounter, func() float64 { return float64(read()) })
}

// Gauge registers a gauge whose current level read returns. No-op on a
// nil registry.
func (r *Registry) Gauge(name, help string, read func() float64) {
	r.add(name, help, KindGauge, read)
}

func (r *Registry) add(name, help string, kind Kind, read func() float64) {
	if r == nil {
		return
	}
	r.claim(name)
	r.scalars = append(r.scalars, scalar{name: name, help: help, kind: kind, read: read})
}

// Histogram registers a fixed-bucket histogram with the given ascending
// upper bounds (the +Inf overflow bucket is implicit). Returns nil on a
// nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.claim(name)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending: " + name)
		}
	}
	h := &Histogram{name: name, help: help, bounds: append([]float64(nil), bounds...), counts: make([]int64, len(bounds)+1)}
	r.hists = append(r.hists, h)
	return h
}

// ScalarNames returns the registered scalar names in registration order —
// the sampler's column schema. Nil-safe.
func (r *Registry) ScalarNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.scalars))
	for i, s := range r.scalars {
		names[i] = s.name
	}
	return names
}

// scalarValues appends the current scalar values in registration order.
func (r *Registry) scalarValues(into []float64) []float64 {
	for _, s := range r.scalars {
		into = append(into, s.read())
	}
	return into
}

// ScalarValue is one scalar's state inside a Snapshot.
type ScalarValue struct {
	Name  string
	Help  string
	Kind  Kind
	Value float64
}

// HistValue is one histogram's state inside a Snapshot.
type HistValue struct {
	Name   string
	Help   string
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Snapshot is a self-contained copy of a registry's state, safe to hand
// across goroutines once taken. Take it only while the owning goroutine is
// quiescent (at a barrier, or from the owner itself).
type Snapshot struct {
	Scalars []ScalarValue
	Hists   []HistValue
}

// Snapshot copies the registry state. Nil-safe: a nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	snap := Snapshot{
		Scalars: make([]ScalarValue, len(r.scalars)),
		Hists:   make([]HistValue, len(r.hists)),
	}
	for i, s := range r.scalars {
		snap.Scalars[i] = ScalarValue{Name: s.name, Help: s.help, Kind: s.kind, Value: s.read()}
	}
	for i, h := range r.hists {
		snap.Hists[i] = HistValue{
			Name:   h.name,
			Help:   h.help,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			Sum:    h.sum,
			Count:  h.n,
		}
	}
	return snap
}

// Merge folds other's metrics into a copy of snap, summing counters and
// histograms that share a name and keeping the receiver's gauges (gauges
// are levels, not totals; the caller's shard wins). Metrics only present
// in other are appended. Used when collapsing per-DC shards into one view.
func Merge(snap, other Snapshot) Snapshot {
	out := Snapshot{
		Scalars: append([]ScalarValue(nil), snap.Scalars...),
		Hists:   append([]HistValue(nil), snap.Hists...),
	}
	sIdx := make(map[string]int, len(out.Scalars))
	for i, s := range out.Scalars {
		sIdx[s.Name] = i
	}
	for _, s := range other.Scalars {
		if i, ok := sIdx[s.Name]; ok {
			if out.Scalars[i].Kind == KindCounter && s.Kind == KindCounter {
				out.Scalars[i].Value += s.Value
			}
			continue
		}
		sIdx[s.Name] = len(out.Scalars)
		out.Scalars = append(out.Scalars, s)
	}
	hIdx := make(map[string]int, len(out.Hists))
	for i, h := range out.Hists {
		hIdx[h.Name] = i
	}
	for _, h := range other.Hists {
		if i, ok := hIdx[h.Name]; ok && len(out.Hists[i].Counts) == len(h.Counts) {
			dst := &out.Hists[i]
			dst.Counts = append([]int64(nil), dst.Counts...)
			for j, c := range h.Counts {
				dst.Counts[j] += c
			}
			dst.Sum += h.Sum
			dst.Count += h.Count
			continue
		}
		hIdx[h.Name] = len(out.Hists)
		out.Hists = append(out.Hists, h)
	}
	return out
}

// Sorted returns a copy of snap with scalars and histograms in name order,
// for deterministic rendering of merged snapshots.
func Sorted(snap Snapshot) Snapshot {
	out := Snapshot{
		Scalars: append([]ScalarValue(nil), snap.Scalars...),
		Hists:   append([]HistValue(nil), snap.Hists...),
	}
	sort.Slice(out.Scalars, func(i, j int) bool { return out.Scalars[i].Name < out.Scalars[j].Name })
	sort.Slice(out.Hists, func(i, j int) bool { return out.Hists[i].Name < out.Hists[j].Name })
	return out
}

// Options configures telemetry for a simulator or cluster engine. A nil
// *Options disables telemetry entirely (nil registries everywhere).
type Options struct {
	// SampleEvery is the simulated-tick interval between sampler rows;
	// 0 means DefaultSampleEvery.
	SampleEvery int64
	// RingCap bounds the retained rows per sampler; 0 means
	// DefaultRingCap. The ring keeps the most recent rows.
	RingCap int
}

// Defaults for Options zero fields.
const (
	DefaultSampleEvery = 100
	DefaultRingCap     = 4096
)

// Every resolves the sampling interval, nil-safe.
func (o *Options) Every() int64 {
	if o == nil || o.SampleEvery <= 0 {
		return DefaultSampleEvery
	}
	return o.SampleEvery
}

// Ring resolves the ring capacity, nil-safe.
func (o *Options) Ring() int {
	if o == nil || o.RingCap <= 0 {
		return DefaultRingCap
	}
	return o.RingCap
}
