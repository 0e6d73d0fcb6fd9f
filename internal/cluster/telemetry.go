package cluster

import (
	"fmt"

	"taskprune/internal/telemetry"
)

// detectLagBounds buckets detection lag in ticks.
var detectLagBounds = []float64{10, 25, 50, 100, 250, 500, 1000}

// registerTelemetry wires the engine's telemetry shard into r: dispatch
// outcomes, gate-buffer behaviour, and believed-vs-true per-DC health.
// Every counter and gauge is a read of engine-owned state — never of the
// per-DC simulators, which may be stepping on worker goroutines when the
// parallel driver samples mid-window. Per-DC queue depths and fleet state
// live in each datacenter's own simulator shard instead.
func (e *Engine) registerTelemetry(r *telemetry.Registry, dcs int) {
	count := func(v *int) func() int64 { return func() int64 { return int64(*v) } }
	g := &e.gateStats
	r.Counter("gate_arrivals_total", "fresh arrivals reaching the dispatcher gate", count(&e.arrivals))
	r.Counter("gate_admitted_total", "arrivals routed straight into a datacenter", count(&e.admitted))
	r.Counter("gate_injected_total", "failover/buffer/retry tasks injected into a datacenter", count(&e.injected))
	r.Counter("gate_dropped_total", "tasks dropped at the gate (no believed-healthy DC, no buffer)", count(&g.Dropped))
	r.Counter("gate_shed_total", "tasks shed from the bounded gate buffer", count(&g.Shed))
	r.Counter("gate_lost_undetected_total", "tasks lost bouncing off undetected outages", count(&g.LostUndetected))
	r.Counter("gate_retries_total", "re-dispatch attempts after bounced dispatches", count(&g.Retries))
	r.Counter("gate_bounced_total", "dispatches that landed on a down-but-undetected DC", count(&g.Bounced))
	r.Counter("gate_buffered_total", "tasks that entered the gate buffer", count(&g.Buffered))
	r.Counter("gate_detections_total", "outages the health monitor flagged", count(&g.Detections))
	r.Counter("gate_detection_lag_ticks_total", "summed detection lag over all detections", func() int64 { return g.DetectionLagTicks })
	r.Gauge("gate_max_queue_depth", "deepest the gate buffer ever got", func() float64 { return float64(g.MaxQueueDepth) })
	r.Gauge("gate_detection_lag_mean", "mean detection lag in ticks", func() float64 {
		if g.Detections == 0 {
			return 0
		}
		return float64(g.DetectionLagTicks) / float64(g.Detections)
	})
	r.Gauge("gate_queue_depth", "tasks currently waiting in the gate buffer", func() float64 { return float64(len(e.buf)) })
	r.Gauge("dcs_in_service", "datacenters actually up (ground truth)", func() float64 { return e.countDCs(func(d *DC) bool { return d.alive }) })
	r.Gauge("dcs_healthy", "datacenters the dispatcher believes are up", func() float64 { return e.countDCs(func(d *DC) bool { return d.healthy }) })
	r.Gauge("gate_arrival_rate", "gate arrivals per simulated tick over the last sample interval", func() float64 { return e.arrivalRate })
	e.detectLag = r.Histogram("gate_detection_lag", "detection lag per flagged outage, in ticks", detectLagBounds)
	for d := 0; d < dcs; d++ {
		r.Gauge(dcMetric("dc%d_in_service", d), "ground-truth up/down flag for this datacenter", func() float64 { return boolGauge(e.dcs[d].alive) })
		r.Gauge(dcMetric("dc%d_healthy", d), "dispatcher's believed up/down flag for this datacenter", func() float64 { return boolGauge(e.dcs[d].healthy) })
	}
}

func dcMetric(format string, d int) string {
	return fmt.Sprintf(format, d)
}

// countDCs counts the datacenters for which in holds.
func (e *Engine) countDCs(in func(*DC) bool) float64 {
	n := 0
	for _, d := range e.dcs {
		if in(d) {
			n++
		}
	}
	return float64(n)
}

// prepareSample computes the gate arrival rate over the interval ending at
// the row about to be recorded — the one probe defined by the previous row
// rather than by engine state. Deterministic given the engine's event
// sequence, which is identical across the sequential and parallel drivers.
func (e *Engine) prepareSample() {
	e.arrivalRate = float64(e.arrivals-e.lastArrivals) / float64(e.sampler.Every())
	e.lastArrivals = e.arrivals
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Telemetry returns the engine's own probe registry (nil when disabled).
// Per-DC shards are reachable via DCList()[i].Sim().Telemetry().
func (e *Engine) Telemetry() *telemetry.Registry { return e.tel }

// TelemetrySampler returns the engine shard's time-series sampler (nil
// when disabled).
func (e *Engine) TelemetrySampler() *telemetry.Sampler { return e.sampler }

// TelemetrySamplers returns every shard's sampler with its export scope —
// the engine ("cluster") followed by each datacenter ("dc0".."dcN") — for
// CSV/JSON time-series export. Call only after RunSource returns (the
// barrier at which worker shards become readable); empty when disabled.
func (e *Engine) TelemetrySamplers() []telemetry.ScopedSampler {
	if e.tel == nil {
		return nil
	}
	out := []telemetry.ScopedSampler{{Scope: "cluster", S: e.sampler}}
	for _, d := range e.dcs {
		out = append(out, telemetry.ScopedSampler{Scope: dcMetric("dc%d", d.index), S: d.sim.TelemetrySampler()})
	}
	return out
}

// TelemetryShards snapshots every shard's registry with its export scope,
// for Prometheus/JSON snapshot export. Same barrier contract as
// TelemetrySamplers.
func (e *Engine) TelemetryShards() []telemetry.Shard {
	if e.tel == nil {
		return nil
	}
	out := []telemetry.Shard{{Scope: "cluster", Snap: e.tel.Snapshot()}}
	for _, d := range e.dcs {
		out = append(out, telemetry.Shard{Scope: dcMetric("dc%d", d.index), Snap: d.sim.Telemetry().Snapshot()})
	}
	return out
}

// Phases returns the merged phase-timer breakdown — the engine's dispatch
// spans plus every datacenter's admit/step/eval/convolve spans. Nil when
// Config.Phases is off; call only after RunSource returns.
func (e *Engine) Phases() *telemetry.PhaseTimer {
	if e.phases == nil {
		return nil
	}
	out := telemetry.NewPhaseTimer()
	out.Merge(e.phases)
	for _, pt := range e.dcPhases {
		out.Merge(pt)
	}
	return out
}
