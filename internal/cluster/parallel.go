// Parallel per-DC stepping. The engine's event order — arrivals first,
// then cluster-scoped events, then per-DC events by index — already makes
// every dispatch decision a synchronization point and everything between
// two sync points embarrassingly parallel: per-DC internal events touch
// only their datacenter's private simulator core, the shared cluster
// collector is interleaving-invariant (metrics.Stream.Share), and the
// task pool is a sync.Pool.
//
// The driver below exploits that structure for state-free policies
// (StateFreeRouter): when Pick provably reads nothing but the policy's own
// cursor and the believed-healthy set, the engine routes the whole window
// up to the next cluster-scoped or gate event ahead of time, streaming
// arrivals into bounded per-DC channels while the workers admit and step
// concurrently; barriers remain only at those engine-level events and at
// end of stream. The window bound is re-read after every dispatch: routing
// into a down-but-undetected datacenter plants a retry gate event that may
// now precede the next arrival. Stateful policies (least-queued,
// pet-aware) read every datacenter's queues at each arrival, so New
// rejects Parallel for them.
//
// Gate events (detection, trust, salvage, retry — failover.go) fire on the
// engine goroutine with every worker quiescent at that tick, so their
// simulator injections land in exactly the sequential call order.
//
// The driver replays byte-identically against the sequential interleave
// (traces, dispatch log, statistics) — TestClusterParallelStepDeterminism
// pins this across GOMAXPROCS settings under the race detector.
package cluster

import (
	"math"
	"sync"

	"taskprune/internal/task"
	"taskprune/internal/workload"
)

// StateFreeRouter marks a Policy whose Pick depends only on the policy's
// own internal state and each datacenter's Alive flag (the dispatcher's
// health belief — engine-owned, mutated only between barriers) — never on
// queue contents, machine state, or anything else a concurrently stepping
// simulator mutates. Only such policies may run with Config.Parallel; a
// policy that reads more than it declares here would race and lose replay
// determinism, so implement StateFree with care (RoundRobin: a cursor over
// the believed-healthy set, nothing else).
type StateFreeRouter interface {
	Policy
	StateFree() bool
}

// StateFree implements StateFreeRouter: a round-robin pick reads the
// cursor and the alive flags, both owned by the engine goroutine.
func (p *RoundRobin) StateFree() bool { return true }

// IsStateFree reports whether p declares itself a StateFreeRouter — the
// condition New places on Config.Parallel.
func IsStateFree(p Policy) bool {
	sf, ok := p.(StateFreeRouter)
	return ok && sf.StateFree()
}

// wideWindowBuffer bounds each datacenter's in-flight arrival channel; a
// full channel backpressures the dispatcher.
const wideWindowBuffer = 128

// dcWork is one unit handed to a datacenter worker: optionally admit one
// task at its arrival tick (internal events strictly before that tick are
// processed first), then burn internal events strictly below horizon.
// Events at exactly horizon stay pending — the next sync point wins ties.
type dcWork struct {
	admit   *task.Task
	horizon int64
	ack     bool // reply on done once handled (a barrier edge)
}

// dcWorker owns one datacenter's goroutine for the lifetime of a parallel
// run. err holds the first Admit failure; the worker keeps draining its
// channel afterwards (acks included) so the engine never blocks, and the
// engine reads err only after receiving an ack — the channel receive is
// the happens-before edge.
type dcWorker struct {
	dc   *DC
	work chan dcWork
	done chan struct{}
	err  error
}

func (w *dcWorker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for m := range w.work {
		if w.err == nil && m.admit != nil {
			w.dc.sim.StepUntil(m.admit.Arrival)
			w.err = w.dc.sim.Admit(m.admit)
		}
		if w.err == nil {
			w.dc.sim.StepUntil(m.horizon)
		}
		if m.ack {
			w.done <- struct{}{}
		}
	}
}

// runParallel steps the datacenters concurrently. It returns only after
// every worker goroutine has exited, so the caller may touch the
// simulators (Finalize) freely afterwards.
//
// The dispatcher routes every arrival up to the next engine-level event
// (cluster-scoped or gate) in one go — the policy's picks cannot depend
// on how far the workers have gotten — and each datacenter pipelines its
// admits and internal events concurrently with the dispatch loop. Gate
// drops, buffering, and bounce scheduling fold into engine-owned state
// from here while workers observe exits from their side; Share makes the
// collector safe and order-invariant.
func (e *Engine) runParallel(src workload.Source) error {
	e.collector.Share()
	workers := make([]*dcWorker, len(e.dcs))
	var wg sync.WaitGroup
	for i, d := range e.dcs {
		workers[i] = &dcWorker{dc: d, work: make(chan dcWork, wideWindowBuffer), done: make(chan struct{}, 1)}
		wg.Add(1)
		go workers[i].loop(&wg)
	}
	defer func() {
		for _, w := range workers {
			close(w.work)
		}
		wg.Wait()
	}()
	next, hasNext, err := e.pull(src)
	if err != nil {
		return err
	}
	for {
		// Re-read after every dispatch: a bounce may have planted a
		// retry gate event ahead of the next arrival.
		tick, dc, ok := e.nextEngineEvent()
		if hasNext && (!ok || next.Arrival <= tick) {
			d, admit, err := e.routeArrival(next)
			if err != nil {
				return err
			}
			if admit {
				workers[d].work <- dcWork{admit: next, horizon: next.Arrival}
			}
			if next, hasNext, err = e.pull(src); err != nil {
				return err
			}
			continue
		}
		horizon := tick
		if !ok {
			horizon = math.MaxInt64
		}
		if err := barrierAll(workers, horizon); err != nil {
			return err
		}
		if !ok {
			return nil // the MaxInt64 barrier drained every datacenter
		}
		if err := e.stepNext(tick, dc); err != nil {
			return err
		}
	}
}

// barrierAll quiesces every datacenter at horizon: queued admits land,
// internal events below horizon run, and the engine regains exclusive
// access to all simulator state (failover draining, finalization).
func barrierAll(workers []*dcWorker, horizon int64) error {
	for _, w := range workers {
		w.work <- dcWork{horizon: horizon, ack: true}
	}
	var firstErr error
	for _, w := range workers {
		<-w.done
		if err := w.err; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
