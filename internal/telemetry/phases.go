package telemetry

import (
	"fmt"
	"io"
	"time"
)

// Phase labels the disjoint spans of wall time a trial is attributed to.
// Dispatch is cluster routing (policy pick + gate logic), Admit is task
// admission into a fleet, Step is event handling proper (completions and
// fleet events), Eval is heuristic mapping (Map plus applying its result),
// Convolve is queue pruning (the PMF convolution pass), and Other is the
// remaining per-event bookkeeping (deadline drops, machine starts).
type Phase int

// The phases, in display order.
const (
	PhaseDispatch Phase = iota
	PhaseAdmit
	PhaseStep
	PhaseEval
	PhaseConvolve
	PhaseOther
	numPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseDispatch:
		return "dispatch"
	case PhaseAdmit:
		return "admit"
	case PhaseStep:
		return "step"
	case PhaseEval:
		return "eval"
	case PhaseConvolve:
		return "convolve"
	case PhaseOther:
		return "other"
	}
	return "unknown"
}

// PhaseTimer accumulates wall time per phase. Like histograms and
// samplers it is shard-owned and nil-safe: a nil timer makes Start/Observe
// free no-ops, and one timer belongs to one goroutine until merged at a
// barrier. Spans are disjoint by construction (callers time one phase at
// a time), so phase totals are attributable slices of the trial's wall
// time rather than overlapping measures.
type PhaseTimer struct {
	dur [numPhases]int64 // nanoseconds
	n   [numPhases]int64
}

// NewPhaseTimer builds an enabled timer.
func NewPhaseTimer() *PhaseTimer { return &PhaseTimer{} }

// Start returns the span's start time, or the zero time on a nil receiver.
func (t *PhaseTimer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Observe closes a span opened by Start and attributes it to p. No-op on
// a nil receiver.
func (t *PhaseTimer) Observe(p Phase, t0 time.Time) {
	if t == nil {
		return
	}
	t.dur[p] += int64(time.Since(t0))
	t.n[p]++
}

// Merge folds o into t (barrier-time shard aggregation). Nil-safe on both
// sides.
func (t *PhaseTimer) Merge(o *PhaseTimer) {
	if t == nil || o == nil {
		return
	}
	for i := range t.dur {
		t.dur[i] += o.dur[i]
		t.n[i] += o.n[i]
	}
}

// PhaseStat is one phase's aggregate.
type PhaseStat struct {
	Phase Phase
	Total time.Duration
	Count int64
}

// Breakdown returns the per-phase aggregates in display order. Nil-safe.
func (t *PhaseTimer) Breakdown() []PhaseStat {
	if t == nil {
		return nil
	}
	out := make([]PhaseStat, numPhases)
	for i := range out {
		out[i] = PhaseStat{Phase: Phase(i), Total: time.Duration(t.dur[i]), Count: t.n[i]}
	}
	return out
}

// WriteText prints the phase breakdown as an aligned table with each
// phase's share of the instrumented total. Nil-safe (prints nothing).
func (t *PhaseTimer) WriteText(w io.Writer) error {
	if t == nil {
		return nil
	}
	var total time.Duration
	for _, st := range t.Breakdown() {
		total += st.Total
	}
	if _, err := fmt.Fprintf(w, "phase timings (instrumented total %v):\n", total.Round(time.Microsecond)); err != nil {
		return err
	}
	for _, st := range t.Breakdown() {
		if st.Count == 0 {
			continue
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(st.Total) / float64(total)
		}
		mean := time.Duration(0)
		if st.Count > 0 {
			mean = st.Total / time.Duration(st.Count)
		}
		if _, err := fmt.Fprintf(w, "  %-9s %10v  %5.1f%%  n=%-8d mean=%v\n",
			st.Phase, st.Total.Round(time.Microsecond), pct, st.Count, mean.Round(time.Nanosecond)); err != nil {
			return err
		}
	}
	return nil
}
