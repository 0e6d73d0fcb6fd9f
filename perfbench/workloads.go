package main

import (
	"fmt"
	"runtime"
	"time"

	"taskprune/internal/experiments"
)

// hardCap ends the measured loop of a run that has not met its sample
// minimums in time, so the process exits within its time limit; the
// unsupported percentile is then reported as a failed check.
const hardCap = 150 * time.Second

// rateWindow is how many consecutive trials or sessions one throughput
// sample spans.
const rateWindow = 10

// rssAfter is how many measured trials or sessions run before peak_rss_mb
// is read. A fixed amount of work keeps the figure from growing with the
// number of operations a fast host fits into the run, since the
// benchmark's own sample buffers grow with that number.
const rssAfter = 20

// measuredTrial is one trial of the measured loop.
type measuredTrial struct {
	trialOut
	ref   int           // the reference sample taken right before it
	setup time.Duration // the set-up timed before it
}

// trialWorkload measures back-to-back seeded 800-task trials of spec on
// one goroutine. An untraced run times every trial; a traced run
// alternates an untraced and a traced trial of each input, so the tracing
// overhead is measured under the same conditions.
func trialWorkload(spec trialSpec) func(options) (*outcome, error) {
	return func(o options) (*outcome, error) {
		out := &outcome{metrics: map[string]float64{}}
		b, err := newTrialBench(spec)
		if err != nil {
			return nil, err
		}
		if !samePET(b.matrix, experiments.SPECPET()) {
			out.problem("the PET built here differs from experiments.SPECPET")
		}
		if err := naiveCheck(o.seed); err != nil {
			out.problem("%v", err)
		}
		// Warm-up: one trial outside the measurement.
		if _, err := b.run(trialInput(b.matrix, spec.level, o.seed, 0), -1, false); err != nil {
			return nil, err
		}
		tb := &trialBench{spec: spec, matrix: b.matrix, cfg: b.cfg}
		if o.trace {
			tb.tr = newTracer()
		}

		var (
			plain, traced []measuredTrial
			robust        [trialInputs]float64
			seen          [trialInputs]bool
			first         [trialInputs]trialOut // first traced trial of each input
			tseen         [trialInputs]bool
			rss           float64
		)
		enough := func() bool {
			if o.trace {
				return all(tseen[:])
			}
			return len(plain) >= minTrials && all(seen[:])
		}
		start := time.Now()
		for i := 0; time.Since(start) < hardCap && (time.Since(start) < o.seconds || !enough()); i++ {
			k, isTraced := i%trialInputs, false
			if o.trace {
				k, isTraced = (i/2)%trialInputs, i%2 == 1
			}
			ref := out.speed.sample()
			// Set-up is timed once per trial, outside it, so its median
			// sees the same machine conditions as the trials do.
			t0 := time.Now()
			if _, err := newTrialBench(spec); err != nil {
				return nil, err
			}
			setup := time.Since(t0)
			bench := b
			if isTraced {
				bench = tb
			}
			res, err := bench.run(trialInput(b.matrix, spec.level, o.seed, k), int32(i), false)
			out.attempted++
			if i+1 == rssAfter {
				rss = peakRSSMB()
			}
			if err != nil {
				out.failed++
				out.problem("trial %d (input %d): %v", i, k, err)
				continue
			}
			// Replays of an input, traced or not, must decide identically.
			if seen[k] && res.stats.RobustnessPct != robust[k] {
				out.problem("input %d replayed to robustness %v, first run %v", k, res.stats.RobustnessPct, robust[k])
			}
			robust[k], seen[k] = res.stats.RobustnessPct, true
			mt := measuredTrial{trialOut: res, ref: ref, setup: setup}
			if !isTraced {
				plain = append(plain, mt)
				continue
			}
			traced = append(traced, mt)
			if !tseen[k] {
				first[k], tseen[k] = res, true
			}
		}
		if !enough() {
			out.problem("measured %d trials in %v: too few for the percentile rule or one pass over the inputs", out.attempted, hardCap)
		}

		if !o.trace {
			var times, raw, absorb, setups []float64
			var perTrial [][]float64 // scaled absorb samples of each trial
			for _, r := range plain {
				f := out.speed.scale(r.ref)
				times = append(times, float64(r.elapsed)*f)
				raw = append(raw, float64(r.elapsed))
				setups = append(setups, secs(r.setup)*f)
				scaled := make([]float64, len(r.absorb))
				for i, a := range r.absorb {
					scaled[i] = a * f
				}
				perTrial = append(perTrial, scaled)
				absorb = append(absorb, scaled...)
			}
			trialTimes, absorbs := newDist(times), newDist(absorb)
			out.metrics["tasks_per_s"] = windowedRate(times, func(int) float64 { return trialTasks })
			out.metrics["trial_p50_ms"] = trialTimes.at(500) / 1e6
			out.metrics["trial_p90_ms"] = windowedPercentile(singles(times), minTrials, 900) / 1e6
			out.metrics["robustness_pct"] = mean(robust[:])
			out.metrics["submit_p50_us"] = absorbs.at(500) / 1e3
			out.metrics["submit_p99_us"] = windowedPercentile(perTrial, rateWindow, 990) / 1e3
			out.metrics["setup_s"] = median(setups)
			out.metrics["peak_rss_mb"] = rss
			out.notes = append(out.notes,
				fmt.Sprintf("%d trials over %d seeded inputs; %d per-arrival absorb samples; %d set-ups", len(times), trialInputs, len(absorb), len(setups)),
				describe("trial ms (scaled)", trialTimes, 1e6),
				describe("trial ms (unscaled)", newDist(raw), 1e6),
				describe("absorb us (scaled)", absorbs, 1e3))
			return out, nil
		}

		spans := tb.tr.snapshot()
		out.spans = spans
		scale := out.speed.runScale()
		self := selfTimes(spans)
		nt := float64(len(traced)) / scale // divides a run total into a scaled per-trial mean
		var calls, batch, assigned, deferred, events, drops, picks int
		var hits, misses int64
		var convolve time.Duration
		for _, r := range first {
			calls += r.heur.calls
			batch += r.heur.batch
			assigned += r.heur.assigned
			deferred += r.heur.deferred
			h, m := r.heur.cacheCounts()
			hits, misses = hits+h, misses+m
			events += r.mappingEvents
			drops += r.prunerDrops
			picks += r.pickCalls
		}
		for _, r := range traced {
			convolve += r.convolve
		}
		perTrial := func(n int) float64 { return float64(n) / trialInputs }
		maps := newDist(durations(spans, "heuristics.map"))
		m := out.metrics
		m["simulator.self_ns"] = float64(self["simulator.runsource"]) / nt
		m["simulator.mapping_events"] = perTrial(events)
		m["workload.next_ns"] = float64(self["workload.next"]) / nt
		m["heuristics.map_ns"] = float64(self["heuristics.map"]) / nt
		m["heuristics.map_calls"] = perTrial(calls)
		m["heuristics.map_p50_ns"] = maps.at(500) * scale
		m["heuristics.map_p99_ns"] = maps.at(990) * scale
		m["heuristics.batch_mean"] = float64(batch) / float64(calls)
		m["heuristics.assigned_per_call"] = float64(assigned) / float64(calls)
		m["heuristics.deferred_per_call"] = float64(deferred) / float64(calls)
		m["heuristics.eval_cache_hits"] = perTrial(int(hits))
		m["heuristics.eval_cache_misses"] = perTrial(int(misses))
		m["heuristics.eval_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		m["pruner.convolve_ns"] = float64(convolve) / nt
		m["pruner.drops"] = perTrial(drops)
		if spec.dcs > 0 {
			m["cluster.pick_ns"] = float64(self["cluster.pick"]) / nt
			m["cluster.pick_calls"] = perTrial(picks)
			m["cluster.pick_p99_ns"] = newDist(durations(spans, "cluster.pick")).at(990) * scale
		}
		m["trace_overhead_pct"] = (out.meanScaled(traced)/out.meanScaled(plain) - 1) * 100
		out.notes = append(out.notes, fmt.Sprintf("%d traced and %d untraced trials; counts are means over one pass of %d inputs", len(traced), len(plain), trialInputs))
		addKernelMetrics(out, o.seed)
		return out, nil
	}
}

// meanScaled is the mean scaled trial time.
func (o *outcome) meanScaled(ts []measuredTrial) float64 {
	var s float64
	for _, t := range ts {
		s += float64(t.elapsed) * o.speed.scale(t.ref)
	}
	return s / float64(len(ts))
}

// serveWorkload measures daemon sessions: each boots the shipped
// deployment, takes sessionTasks single-task POSTs from one closed-loop
// client per CPU, and drains. A traced run alternates untraced and traced
// sessions.
//
// The run uses one scheduler thread (GOMAXPROCS 1): clients, handlers and
// the pump interleave on it, so each submission settles alone and the
// figures measure the CPU path a task takes through HTTP, JSON, the
// LiveSource and the pump. With a thread per CPU the clients race the
// pump instead, and on a shared host whose speed drifts the race's
// outcome flips between runs (bursts the pump admits at one tick, lower
// robustness, longer sessions), which made every figure bimodal.
func serveWorkload(o options) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := &outcome{metrics: map[string]float64{}}
	if err := naiveCheck(o.seed); err != nil {
		out.problem("%v", err)
	}
	clients := runtime.NumCPU() // one closed-loop client per CPU
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// Warm-up: one session outside the measurement.
	if _, err := runSession(o.root, o.seed, -1, clients, nil); err != nil {
		return nil, err
	}

	var plain, traced []session
	var rss float64
	enough := func() bool {
		if o.trace {
			return len(traced) > 0
		}
		return len(plain) >= minTrials
	}
	start := time.Now()
	for i := 0; time.Since(start) < hardCap && (time.Since(start) < o.seconds || !enough()); i++ {
		isTraced := o.trace && i%2 == 1
		var str *tracer
		if isTraced {
			str = tr
		}
		ref := out.speed.sample()
		s, err := runSession(o.root, o.seed, i, clients, str)
		if err != nil {
			return nil, err
		}
		s.ref = ref
		out.attempted += s.attempted
		out.failed += s.failed
		for _, p := range s.problems {
			out.problem("session %d: %s", i, p)
		}
		if isTraced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
		if i+1 == rssAfter {
			rss = peakRSSMB()
		}
	}
	if !enough() {
		out.problem("measured %d sessions in %v: too few for the percentile rule", len(plain)+len(traced), hardCap)
	}

	// perTask returns the mean scaled session time per accepted task.
	perTask := func(ss []session) float64 {
		var el, acc float64
		for _, s := range ss {
			el += float64(s.elapsed) * out.speed.scale(s.ref)
			acc += float64(s.accepted)
		}
		return el / acc
	}

	if !o.trace {
		var elapsed, raw, lat, robust, setups, accepted []float64
		var perSession [][]float64 // scaled POST latencies of each session
		for _, s := range plain {
			f := out.speed.scale(s.ref)
			elapsed = append(elapsed, float64(s.elapsed)*f)
			raw = append(raw, float64(s.elapsed))
			scaled := make([]float64, len(s.latency))
			for i, l := range s.latency {
				scaled[i] = l * f
			}
			perSession = append(perSession, scaled)
			lat = append(lat, scaled...)
			robust = append(robust, s.robustness)
			setups = append(setups, secs(s.setup)*f)
			accepted = append(accepted, float64(s.accepted))
		}
		times, submits := newDist(elapsed), newDist(lat)
		out.metrics["tasks_per_s"] = windowedRate(elapsed, func(i int) float64 { return accepted[i] })
		out.metrics["trial_p50_ms"] = times.at(500) / 1e6
		out.metrics["trial_p90_ms"] = windowedPercentile(singles(elapsed), minTrials, 900) / 1e6
		out.metrics["robustness_pct"] = mean(robust)
		out.metrics["submit_p50_us"] = submits.at(500) / 1e3
		out.metrics["submit_p99_us"] = windowedPercentile(perSession, rateWindow, 990) / 1e3
		out.metrics["setup_s"] = median(setups)
		out.metrics["peak_rss_mb"] = rss
		out.notes = append(out.notes,
			fmt.Sprintf("%d sessions of %d POSTs from %d clients; %d set-ups", len(elapsed), sessionTasks, clients, len(setups)),
			describe("session ms (scaled)", times, 1e6),
			describe("session ms (unscaled)", newDist(raw), 1e6),
			describe("submit us (scaled)", submits, 1e3))
		return out, nil
	}

	spans := tr.snapshot()
	out.spans = spans
	scale := out.speed.runScale()
	var handler, outside []float64
	for _, s := range spans {
		if s.name != "server.handler" {
			continue
		}
		handler = append(handler, float64(s.end-s.start)*scale)
		if s.parent >= 0 {
			req := spans[s.parent]
			outside = append(outside, float64((req.end-req.start)-(s.end-s.start))*scale)
		}
	}
	hd := newDist(handler)
	var queueMax int
	var lagMax int64
	var drains []float64
	for _, s := range traced {
		queueMax = max(queueMax, s.queueMax)
		lagMax = max(lagMax, s.lagMax)
		drains = append(drains, ms(s.drain)*out.speed.scale(s.ref))
	}
	m := out.metrics
	m["server.handler_p50_us"] = hd.at(500) / 1e3
	m["server.handler_p99_us"] = hd.at(990) / 1e3
	m["server.outside_handler_p50_us"] = newDist(outside).at(500) / 1e3
	m["workload.live_queue_depth_max"] = float64(queueMax)
	m["server.admit_lag_max"] = float64(lagMax)
	m["server.drain_ms"] = mean(drains)
	m["trace_overhead_pct"] = (perTask(traced)/perTask(plain) - 1) * 100
	out.notes = append(out.notes, fmt.Sprintf("%d traced and %d untraced sessions", len(traced), len(plain)))
	addKernelMetrics(out, o.seed)
	return out, nil
}

// windowedRate splits the measured operations, in run order, into windows
// of rateWindow and returns the median over windows of tasks done per
// second of host time spent; a transient stall of the machine then moves
// one window, not the reported rate. elapsed holds ns per operation and
// tasks(i) the tasks operation i processed.
func windowedRate(elapsed []float64, tasks func(i int) float64) float64 {
	var rates []float64
	for lo := 0; lo+rateWindow <= len(elapsed); lo += rateWindow {
		var n, ns float64
		for i := lo; i < lo+rateWindow; i++ {
			n += tasks(i)
			ns += elapsed[i]
		}
		rates = append(rates, n/(ns/1e9))
	}
	return median(rates)
}

// windowedPercentile pools the samples of each run of `window`
// consecutive operations, takes percentile pm of each pool, and returns the
// median over pools. A burst of host contention then moves the tail of the
// pools it hits, not the reported one. Callers size the window so that each
// pool has at least minTail samples beyond pm.
func windowedPercentile(ops [][]float64, window, pm int) float64 {
	var per []float64
	for lo := 0; lo+window <= len(ops); lo += window {
		var pool []float64
		for _, op := range ops[lo : lo+window] {
			pool = append(pool, op...)
		}
		per = append(per, newDist(pool).at(pm))
	}
	return median(per)
}

// singles wraps each sample as a one-sample operation for
// windowedPercentile.
func singles(xs []float64) [][]float64 {
	ops := make([][]float64, len(xs))
	for i := range xs {
		ops[i] = xs[i : i+1]
	}
	return ops
}

// addKernelMetrics runs the pmf kernel replay on the SPEC PET; a failed
// kernel check is a failed output check.
func addKernelMetrics(out *outcome, seed int64) {
	km, err := kernelMetrics(buildPET(), seed, &out.speed)
	if err != nil {
		out.problem("%v", err)
		return
	}
	for k, v := range km {
		out.metrics[k] = v
	}
}

// describe renders a sample's count, median and highest supported
// percentile, scaled by div.
func describe(label string, d dist, div float64) string {
	pm, ok := highestPercentile(len(d))
	if !ok {
		return fmt.Sprintf("%s: n=%d, too few for any percentile", label, len(d))
	}
	return fmt.Sprintf("%s: n=%d p50=%.3f p%.1f=%.3f (highest percentile with >=%d samples beyond)", label, len(d), d.at(500)/div, float64(pm)/10, d.at(pm)/div, minTail)
}

func all(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}
