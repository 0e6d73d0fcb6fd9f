package simulator

import (
	"taskprune/internal/metrics"
	"taskprune/internal/telemetry"
)

// batchSizeBounds buckets the per-mapping-event batch depth.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// registerTelemetry wires the simulator's probe catalog into r. Every
// counter and gauge is a read of state the simulator keeps anyway, so a
// snapshot is current whenever it is taken and the hot path pays nothing
// for them. Only the mapping-batch histogram records per event, and the
// arrival rate is computed per sample interval by prepareSample.
func (s *Simulator) registerTelemetry(r *telemetry.Registry) {
	count := func(v *int) func() int64 { return func() int64 { return int64(*v) } }
	r.Counter("arrivals_total", "tasks admitted into the batch queue", count(&s.admits))
	r.Counter("completed_total", "tasks completed on time", func() int64 { return int64(s.exits().Completed) })
	r.Counter("approx_total", "tasks exiting as approximate completions", func() int64 { return int64(s.exits().Approx) })
	r.Counter("missed_total", "tasks finishing after their deadlines", func() int64 { return int64(s.exits().Missed) })
	r.Counter("dropped_total", "tasks dropped (deadline, pruner, failures)", func() int64 { return int64(s.exits().Dropped) })
	r.Counter("mapping_events_total", "mapping events fired", count(&s.mappingEvents))
	r.Counter("pruner_drops_total", "tasks dropped by the pruning mechanism", count(&s.droppedByPruner))
	r.Counter("evicted_total", "executing tasks killed at their deadlines", count(&s.evicted))
	r.Counter("preempted_total", "pruner preemptions (gray-zone pauses)", count(&s.preempted))
	r.Counter("requeued_total", "tasks requeued by machine/DC failures", count(&s.requeued))
	r.Counter("restored_total", "failure requeues resumed from a checkpoint", count(&s.restored))
	r.Counter("checkpoints_total", "checkpoint writes", count(&s.checkpoints))
	r.Counter("eval_cache_hits_total", "phase-one evaluations served from the eval cache", s.evalCache.Hits)
	r.Counter("eval_cache_misses_total", "phase-one evaluations recomputed on cache miss", s.evalCache.Misses)
	r.Gauge("event_queue_depth", "pending internal events (completions + fleet events)", func() float64 { return float64(s.events.Len()) })
	r.Gauge("batch_queue_depth", "tasks waiting in the batch queue", func() float64 { return float64(len(s.batch)) })
	r.Gauge("machine_queued_load", "tasks held by machine queues, executing included", func() float64 {
		n := 0
		for _, m := range s.machines {
			n += m.QueueLen()
		}
		return float64(n)
	})
	r.Gauge("machines_up", "alive machines in this fleet", func() float64 {
		n := 0
		for _, m := range s.machines {
			if m.Alive() {
				n++
			}
		}
		return float64(n)
	})
	r.Gauge("arena_blocks_highwater", "peak 512KiB arena blocks held by one mapping event", func() float64 { return float64(s.arena.HighWater()) })
	r.Gauge("robustness_pct", "100 * on-time completions / exits so far", func() float64 {
		c := s.exits()
		if c.Total == 0 {
			return 0
		}
		return 100 * float64(c.Completed) / float64(c.Total)
	})
	r.Gauge("arrival_rate", "arrivals per simulated tick over the last sample interval", func() float64 { return s.arrivalRate })
	s.batchSize = r.Histogram("mapping_batch_size", "batch-queue depth at each mapping event", batchSizeBounds)
}

// exits returns the exit tallies so far (zero before Begin).
func (s *Simulator) exits() metrics.Counts {
	if s.collector == nil {
		return metrics.Counts{}
	}
	return s.collector.Counts()
}

// prepareSample computes the arrival rate over the interval ending at the
// row about to be recorded — the one probe defined by the previous row
// rather than by the simulator's state.
func (s *Simulator) prepareSample() {
	s.arrivalRate = float64(s.admits-s.lastAdmits) / float64(s.sampler.Every())
	s.lastAdmits = s.admits
}

// Telemetry returns the simulator's probe registry (nil when disabled).
func (s *Simulator) Telemetry() *telemetry.Registry { return s.tel }

// TelemetrySampler returns the time-series sampler (nil when disabled).
func (s *Simulator) TelemetrySampler() *telemetry.Sampler { return s.sampler }
