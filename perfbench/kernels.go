package main

import (
	"fmt"
	"math"
	"time"

	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// Kernel replay for the pmf layer. The mapper's hot kernels run inside
// Map, where the benchmark cannot time single calls without a probe in the
// program; instead it rebuilds the kernels' inputs from the SPEC PET
// through the same public calls the mapper makes, and times the kernels
// on them directly.

const (
	kernelChains     = 48 // machine queues replayed
	kernelCandidates = 4  // task types evaluated against each queue tail
	maxQueue         = 5  // queued tasks per machine (the paper's cap is six, executing included)
	kernelBudget     = 250 * time.Millisecond
)

// kernelEval is one phase-one evaluation: a queue tail (the completion
// distribution of the task ahead), a candidate's execution PMF and
// profile, and its deadline.
type kernelEval struct {
	prev     *pmf.PMF
	exec     *pmf.PMF
	prof     *pmf.Profile
	deadline int64
}

// kernelSet is the replay input, fixed by the seed.
type kernelSet struct {
	evals []kernelEval
	wide  []*pmf.PMF // uncompacted chain steps: Compact's inputs
}

// deadlineSpan is the generator's per-type deadline slack,
// mean(type) + β·mean(all) with β = 2.
func deadlineSpan(m *pet.Matrix, tt task.Type) int64 {
	return int64(m.TypeMeanAcrossMachines(tt) + 2*m.GrandMean() + 0.5)
}

// newKernelSet builds queue-tail chains on random machines: each queued
// task's execution PMF is convolved onto the tail under the evict drop
// mode and the result compacted, as the mapper builds its tails. Every
// tail on the way is evaluated against kernelCandidates fresh arrivals.
func newKernelSet(m *pet.Matrix, seed int64) kernelSet {
	rng := stats.NewRNG(seed)
	var ks kernelSet
	for c := 0; c < kernelChains; c++ {
		mi := rng.Intn(m.NumMachines())
		depth := 1 + rng.Intn(maxQueue)
		prev := pmf.Impulse(0)
		for q := 0; q < depth; q++ {
			tt := task.Type(rng.Intn(m.NumTypes()))
			span := deadlineSpan(m, tt)
			deadline := span - int64(rng.Intn(int(span/2)+1)) // queued a while ago
			res := pmf.ConvolveDrop(prev, m.ScaledPMF(tt, mi, 1), deadline, pmf.Evict)
			ks.wide = append(ks.wide, res.Free)
			prev = pmf.Compact(res.Free, pmf.DefaultMaxImpulses)
			for e := 0; e < kernelCandidates; e++ {
				ct := task.Type(rng.Intn(m.NumTypes()))
				ks.evals = append(ks.evals, kernelEval{
					prev: prev, exec: m.ScaledPMF(ct, mi, 1), prof: m.ScaledProfile(ct, mi, 1),
					deadline: deadlineSpan(m, ct),
				})
			}
		}
	}
	return ks
}

// cells returns the support cells one pass scans: Σ|prev| for DropEval,
// Σ|prev|·|exec| for ConvolveDrop.
func (ks kernelSet) cells() (dropEval, convolveDrop int) {
	for _, e := range ks.evals {
		dropEval += e.prev.Len()
		convolveDrop += e.prev.Len() * e.exec.Len()
	}
	return dropEval, convolveDrop
}

// check verifies the kernels agree with each other on the replay input:
// DropEval's success equals ConvolveDrop's and its expected free time the
// mean of ConvolveDrop's free distribution; MeanCappedAt matches a direct
// sum over the PMF; Compact keeps the mass and honours its impulse bound.
func (ks kernelSet) check() error {
	dst := pmf.New(0, nil)
	for i, e := range ks.evals {
		s, free := pmf.DropEval(e.prev, e.prof, e.deadline, pmf.Evict)
		cs := pmf.ConvolveDropInto(dst, e.prev, e.exec, e.deadline, pmf.Evict)
		if math.Abs(s-cs) > 1e-12 || math.Abs(free-dst.Mean()) > 1e-9*math.Max(1, math.Abs(free)) {
			return fmt.Errorf("kernel eval %d: DropEval (%v, %v) disagrees with ConvolveDropInto (%v, %v)", i, s, free, cs, dst.Mean())
		}
		if got, want := e.prof.MeanCappedAt(e.deadline), cappedMean(e.exec, e.deadline); math.Abs(got-want) > 1e-9*math.Max(1, want) {
			return fmt.Errorf("kernel eval %d: MeanCappedAt(%d) = %v, direct sum %v", i, e.deadline, got, want)
		}
	}
	for i, w := range ks.wide {
		c := pmf.Compact(w, pmf.DefaultMaxImpulses)
		if c.NumImpulses() > pmf.DefaultMaxImpulses || math.Abs(c.Mass()-w.Mass()) > 1e-12 {
			return fmt.Errorf("kernel compact %d: %d impulses, mass %v of %v", i, c.NumImpulses(), c.Mass(), w.Mass())
		}
	}
	return nil
}

// cappedMean is E[min(X, d)] summed over the impulses of p.
func cappedMean(p *pmf.PMF, d int64) float64 {
	ticks, probs := p.Impulses()
	s := 0.0
	for i, t := range ticks {
		s += probs[i] * float64(min(t, d))
	}
	return s
}

// sink keeps the timed kernels' results live.
var sink float64

// timeKernel calls op(i) over i = 0..n-1, pass after pass, until the
// budget is spent, and returns the mean ns per call, scaled to the
// reference speed sampled right before.
func timeKernel(speed *speedMeter, n int, op func(i int)) float64 {
	ri := speed.sample()
	calls := 0
	start := time.Now()
	for time.Since(start) < kernelBudget {
		for i := 0; i < n; i++ {
			op(i)
		}
		calls += n
	}
	return float64(time.Since(start)) / float64(calls) * speed.scale(ri)
}

// kernelMetrics checks and times the pmf kernels on the replay input.
func kernelMetrics(m *pet.Matrix, seed int64, speed *speedMeter) (map[string]float64, error) {
	ks := newKernelSet(m, seed)
	if err := ks.check(); err != nil {
		return nil, err
	}
	dst := pmf.New(0, nil)
	arena := pmf.NewArena() // the mapper compacts into its per-event arena
	ev := ks.evals
	dropCells, convCells := ks.cells()
	return map[string]float64{
		"pmf.dropeval_ns": timeKernel(speed, len(ev), func(i int) {
			s, f := pmf.DropEval(ev[i].prev, ev[i].prof, ev[i].deadline, pmf.Evict)
			sink += s + f
		}),
		"pmf.convolvedrop_ns": timeKernel(speed, len(ev), func(i int) {
			sink += pmf.ConvolveDropInto(dst, ev[i].prev, ev[i].exec, ev[i].deadline, pmf.Evict)
		}),
		"pmf.compact_ns": timeKernel(speed, len(ks.wide), func(i int) {
			if i == 0 {
				arena.Reset()
			}
			sink += float64(arena.Compact(ks.wide[i], pmf.DefaultMaxImpulses).Start())
		}),
		"pmf.meancapped_ns": timeKernel(speed, len(ev), func(i int) {
			sink += ev[i].prof.MeanCappedAt(ev[i].deadline)
		}),
		"pmf.dropeval_cells":     float64(dropCells),
		"pmf.convolvedrop_cells": float64(convCells),
	}, nil
}
