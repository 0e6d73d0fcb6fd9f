package cluster

import (
	"fmt"

	"taskprune/internal/metrics"
	"taskprune/internal/task"
	"taskprune/internal/workload"
)

// Live driving: the serve daemon's incremental alternative to RunSource.
// RunSource owns the whole trial — it pulls arrivals until the source is
// exhausted, then finalizes. A server cannot hand over control like that:
// submissions trickle in over wall time, and between them the engine must
// settle its in-flight work so status endpoints see completions, not a
// frozen clock. StartLive/SubmitLive/Quiesce/FinishLive run exactly the
// runSequential loop, re-cut at submission boundaries:
//
//   - SubmitLive(t) is runSequential's admit step (arrive): every pending
//     event strictly before t.Arrival fires, then t dispatches, so
//     submitting a workload task-by-task is byte-equivalent to RunSource
//     over the same tasks (the equivalence test pins this).
//   - Quiesce steps pending events only while tasks are in flight. It
//     deliberately does NOT run the event queue dry: far-future scenario
//     events (a dc-fail at tick 10⁶) must wait for the clock to be pulled
//     forward by real submissions, and gate-buffered tasks legitimately
//     wait for a recovery event with nothing else pending.
//   - FinishLive ends with RunSource's tail (finish): flush the gate
//     buffer, flush the telemetry sampler at the cluster-wide end of
//     time, finalize.
//
// Like RunSource, live driving is single-goroutine: the daemon's pump owns
// the engine, and HTTP handlers see only published snapshots.

// StartLive arms the engine for incremental driving. rec, when non-nil,
// receives every retired task (the daemon passes its LiveSource so task
// structs return to the pool). Live driving is sequential by construction
// — it runs the sequential stepping loop (arrive, stepWhile) on the
// caller's goroutine — so a Parallel config is rejected rather than
// silently ignored.
func (e *Engine) StartLive(rec workload.Recycler) error {
	if e.liveOn {
		return fmt.Errorf("cluster: StartLive called twice")
	}
	if e.collector != nil {
		return fmt.Errorf("cluster: engine already driven by RunSource; engines are single-use")
	}
	if e.cfg.Parallel {
		return fmt.Errorf("cluster: live driving is sequential; build the engine with Parallel false")
	}
	e.begin(rec)
	e.liveOn = true
	return nil
}

// SubmitLive admits one task at its stamped Arrival tick: pending events
// strictly before the arrival fire first (arrivals win ties, exactly as in
// runSequential), then the task routes through the gate and dispatcher.
// Arrivals must be non-decreasing across calls — the caller owns the
// simulated clock and stamps ticks via Now.
func (e *Engine) SubmitLive(t *task.Task) error {
	if !e.liveOn {
		return fmt.Errorf("cluster: SubmitLive before StartLive")
	}
	if t.Arrival < e.liveArrival {
		return fmt.Errorf("cluster: live submission %d arrives at %d before the previous submission's %d", t.ID, t.Arrival, e.liveArrival)
	}
	e.liveArrival = t.Arrival
	e.liveSubmitted++
	return e.arrive(t)
}

// Quiesce settles the system after a burst: it steps pending events while
// any submitted task is still in flight (queued in a datacenter, bouncing
// through gate retries, or parked in the gate buffer awaiting a scheduled
// recovery). It returns with either nothing in flight or nothing left to
// step — gate-buffered tasks with no pending recovery stay put, waiting on
// future events.
func (e *Engine) Quiesce() error {
	if !e.liveOn {
		return fmt.Errorf("cluster: Quiesce before StartLive")
	}
	return e.stepWhile(func(int64) bool { return e.InFlight() > 0 })
}

// InFlight counts submitted tasks that have not yet exited: every exit
// path — completion, miss, drop at any layer, gate shed, undetected-outage
// loss — observes the collector, so submissions minus observations is the
// live set wherever those tasks currently sit.
func (e *Engine) InFlight() int {
	if e.collector == nil {
		return 0
	}
	return e.liveSubmitted - e.collector.Total()
}

// Submitted returns how many tasks SubmitLive has accepted.
func (e *Engine) Submitted() int { return e.liveSubmitted }

// Now returns the engine's clock: the tick of the last event or submission
// it processed. Live producers stamp the next submission's Arrival at or
// after this.
func (e *Engine) Now() int64 {
	if e.liveArrival > e.now {
		return e.liveArrival
	}
	return e.now
}

// LiveCounts snapshots the raw exit tallies mid-run (zero before
// StartLive).
func (e *Engine) LiveCounts() metrics.Counts {
	if e.collector == nil {
		return metrics.Counts{}
	}
	return e.collector.Counts()
}

// LiveStats computes the trimmed-window trial statistics over everything
// observed so far, without finalizing the datacenters — a pure mid-run
// read for status reporting. Cost fields are zero (machine-time cost is
// only summed at FinishLive).
func (e *Engine) LiveStats() metrics.TrialStats {
	if e.collector == nil {
		return metrics.TrialStats{}
	}
	return e.collector.Finalize(0)
}

// FinishLive ends a live run: it quiesces in-flight work, exits anything
// still parked in the gate buffer, flushes the telemetry sampler at the
// cluster-wide end of simulated time, and finalizes — RunSource's tail,
// returning the cluster aggregate plus each datacenter's own statistics.
// The engine is spent afterwards.
func (e *Engine) FinishLive() (metrics.TrialStats, []metrics.TrialStats, error) {
	if !e.liveOn {
		return metrics.TrialStats{}, nil, fmt.Errorf("cluster: FinishLive before StartLive")
	}
	if err := e.Quiesce(); err != nil {
		return metrics.TrialStats{}, nil, err
	}
	e.liveOn = false
	st, perDC := e.finish()
	return st, perDC, nil
}
