package pmf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomPMF builds a normalized PMF with 1..maxLen impulses from quick's
// rand source.
func randomPMF(r *rand.Rand, maxLen int) *PMF {
	return randomPMFFrom(r, maxLen, 0)
}

// randomExecPMF builds a normalized PMF starting at tick >= 1, matching the
// PET invariant that executions take at least one tick (FromHistogram
// clamps). DropSuccess/DropExpectedFree rely on that invariant.
func randomExecPMF(r *rand.Rand, maxLen int) *PMF {
	return randomPMFFrom(r, maxLen, 1)
}

func randomPMFFrom(r *rand.Rand, maxLen int, minStart int64) *PMF {
	n := 1 + r.Intn(maxLen)
	probs := make([]float64, n)
	var total float64
	for i := range probs {
		probs[i] = r.Float64()
		total += probs[i]
	}
	if total == 0 {
		probs[0] = 1
		total = 1
	}
	for i := range probs {
		probs[i] /= total
	}
	return New(minStart+int64(r.Intn(50)), probs)
}

// randomSparsePMF builds a compacted PMF — a handful of impulses over a
// wide dense support, with the non-zero index set — the shape queue tails
// take after Compact and the shape the sparse scans of DropEval,
// DropSuccess and the convolution cores walk. The dense support is always
// wider than the compaction bound, so the index is always present.
func randomSparsePMF(r *rand.Rand, maxWidth int) *PMF {
	wide := make([]float64, DefaultMaxImpulses+1+r.Intn(maxWidth))
	for k := 1 + r.Intn(3*DefaultMaxImpulses); k > 0; k-- {
		wide[r.Intn(len(wide))] = r.Float64()
	}
	// Non-zero edges keep New from trimming the span below the bound.
	wide[0], wide[len(wide)-1] = 0.01+r.Float64(), 0.01+r.Float64()
	p := New(int64(r.Intn(50)), wide)
	p.Normalize()
	sp := Compact(p, 1+r.Intn(DefaultMaxImpulses))
	if sp.nz == nil {
		panic("randomSparsePMF: Compact left no sparse index")
	}
	return sp
}

// tailKinds are the two queue-tail shapes the property tests draw prev
// from: dense spans and compacted sparse tails.
var tailKinds = []struct {
	name string
	gen  func(r *rand.Rand) *PMF
}{
	{"dense", func(r *rand.Rand) *PMF { return randomPMF(r, 24) }},
	{"sparse", func(r *rand.Rand) *PMF { return randomSparsePMF(r, 200) }},
}

// randomDeadline draws a deadline from prev's start to 40 ticks past its
// dense support, so wide sparse tails are cut anywhere along their span.
func randomDeadline(r *rand.Rand, prev *PMF) int64 {
	return prev.Start() + int64(r.Intn(prev.Len()+40))
}

var quickCfg = &quick.Config{MaxCount: 300}

// Property: convolution preserves total mass.
func TestPropConvolveMass(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomPMF(r, 24)
		b := randomPMF(r, 24)
		c := Convolve(a, b)
		return math.Abs(c.Mass()-a.Mass()*b.Mass()) < 1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: convolution adds means (E[X+Y] = E[X] + E[Y]).
func TestPropConvolveMean(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomPMF(r, 24)
		b := randomPMF(r, 24)
		c := Convolve(a, b)
		return math.Abs(c.Mean()-(a.Mean()+b.Mean())) < 1e-6
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: convolution adds variances for independent variables.
func TestPropConvolveVariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomPMF(r, 24)
		b := randomPMF(r, 24)
		c := Convolve(a, b)
		return math.Abs(c.Variance()-(a.Variance()+b.Variance())) < 1e-6
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: convolution is commutative.
func TestPropConvolveCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomPMF(r, 16)
		b := randomPMF(r, 16)
		return ApproxEqual(Convolve(a, b), Convolve(b, a), 1e-9)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: dropping-aware convolution conserves mass in every mode and
// keeps success within [0, CDF-bound].
func TestPropConvolveDropMass(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prev := randomPMF(r, 24)
		exec := randomPMF(r, 16)
		deadline := prev.Start() + int64(r.Intn(40))
		for _, mode := range []DropMode{NoDrop, PendingDrop, Evict} {
			res := ConvolveDrop(prev, exec, deadline, mode)
			if math.Abs(res.Free.Mass()-1) > 1e-9 {
				return false
			}
			if res.Success < -1e-12 || res.Success > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: DropSuccess (the O(|prev|) fast path) agrees exactly with the
// Success field of the full convolution, in every mode, over dense and
// compacted sparse tails.
func TestPropDropSuccessMatchesConvolution(t *testing.T) {
	for _, kind := range tailKinds {
		t.Run(kind.name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				prev := kind.gen(r)
				exec := randomExecPMF(r, 16)
				prof := NewProfile(exec)
				deadline := randomDeadline(r, prev)
				fast := DropSuccess(prev, prof, deadline)
				for _, mode := range []DropMode{NoDrop, PendingDrop, Evict} {
					res := ConvolveDrop(prev, exec, deadline, mode)
					if math.Abs(res.Success-fast) > 1e-9 {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, quickCfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: DropExpectedFree agrees with the mean of the fully convolved
// Free PMF in every mode, over dense and compacted sparse tails.
func TestPropDropExpectedFreeMatchesConvolution(t *testing.T) {
	for _, kind := range tailKinds {
		t.Run(kind.name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				prev := kind.gen(r)
				exec := randomExecPMF(r, 16)
				prof := NewProfile(exec)
				deadline := randomDeadline(r, prev)
				for _, mode := range []DropMode{NoDrop, PendingDrop, Evict} {
					res := ConvolveDrop(prev, exec, deadline, mode)
					fast := DropExpectedFree(prev, prof, deadline, mode)
					if math.Abs(res.Free.Mean()-fast) > 1e-6 {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, quickCfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// sameBits reports whether a and b are the same float64 bit pattern — a
// stricter == that also tells +0 from −0 and matches NaN to itself.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Property: DropEval is a bit-identical drop-in for the DropSuccess +
// DropExpectedFree pair it fuses, for every tail shape (dense, compacted
// sparse, and the sparse tail's dense twin, which holds the same values
// without the non-zero index), every drop mode, deadlines below, inside
// and past the support of the convolution, and degenerate exec profiles
// (an impulse, and the empty profile).
func TestPropDropEvalBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sparse := randomSparsePMF(r, 200)
		twin := New(sparse.start, sparse.probs) // Compact's edges are impulses: nothing to trim
		prevs := []*PMF{randomPMF(r, 24), sparse, twin}
		execs := []*PMF{randomExecPMF(r, 16), Impulse(1 + int64(r.Intn(20))), {}}
		for _, prev := range prevs {
			for _, exec := range execs {
				prof := NewProfile(exec)
				end := prev.End() + max(exec.End(), 0) // last tick the convolution reaches
				deadlines := []int64{
					prev.Start() - 1 - int64(r.Intn(5)),
					prev.Start(),
					prev.Start() + r.Int63n(end-prev.Start()+1),
					end,
					end + 1 + int64(r.Intn(5)),
				}
				for _, d := range deadlines {
					for _, mode := range []DropMode{NoDrop, PendingDrop, Evict} {
						s, e := DropEval(prev, prof, d, mode)
						ws := DropSuccess(prev, prof, d)
						we := DropExpectedFree(prev, prof, d, mode)
						if !sameBits(s, ws) || !sameBits(e, we) {
							t.Logf("prev %v exec %v deadline %d %v: DropEval (%v, %v), pair (%v, %v)",
								prev, exec, d, mode, s, e, ws, we)
							return false
						}
						if prev == twin {
							ss, se := DropEval(sparse, prof, d, mode)
							if !sameBits(s, ss) || !sameBits(e, se) {
								t.Logf("sparse/dense twins disagree at deadline %d %v: (%v, %v) vs (%v, %v)",
									d, mode, ss, se, s, e)
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: success probability is monotone in the deadline.
func TestPropSuccessMonotoneInDeadline(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prev := randomPMF(r, 24)
		exec := randomExecPMF(r, 16)
		prof := NewProfile(exec)
		last := -1.0
		for d := prev.Start() - 2; d < prev.End()+20; d++ {
			s := DropSuccess(prev, prof, d)
			if s < last-1e-12 {
				return false
			}
			last = s
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: Compact preserves mass exactly and never widens support.
func TestPropCompact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPMF(r, 200)
		bound := 1 + r.Intn(64)
		c := Compact(p, bound)
		if c.NumImpulses() > bound {
			return false
		}
		if math.Abs(c.Mass()-p.Mass()) > 1e-9 {
			return false
		}
		return c.Start() >= p.Start() && c.End() <= p.End()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: ConditionAtLeast yields a normalized PMF supported at or after
// the conditioning point, and conditioning at the support start is the
// identity.
func TestPropConditionAtLeast(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPMF(r, 24)
		at := p.Start() + int64(r.Intn(30))
		q := p.ConditionAtLeast(at)
		if math.Abs(q.Mass()-1) > 1e-9 {
			return false
		}
		return q.Start() >= at
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: CDF is monotone non-decreasing and reaches total mass.
func TestPropCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPMF(r, 32)
		prev := 0.0
		for tk := p.Start() - 1; tk <= p.End()+1; tk++ {
			c := p.CDF(tk)
			if c < prev-1e-12 {
				return false
			}
			prev = c
		}
		return math.Abs(prev-p.Mass()) < 1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: TruncateAfter + removed mass = original mass.
func TestPropTruncateConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPMF(r, 32)
		orig := p.Mass()
		cut := p.Start() + int64(r.Intn(40)) - 2
		removed := p.TruncateAfter(cut)
		return math.Abs(p.Mass()+removed-orig) < 1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: Profile prefix sums match direct computation.
func TestPropProfileConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPMF(r, 32)
		prof := NewProfile(p)
		for tk := p.Start() - 1; tk <= p.End()+2; tk++ {
			if math.Abs(prof.CDF(tk)-p.CDF(tk)) > 1e-9 {
				return false
			}
			var pm float64
			for u := p.Start(); u <= tk && u <= p.End(); u++ {
				pm += p.At(u) * float64(u)
			}
			if math.Abs(prof.PartialMean(tk)-pm) > 1e-6 {
				return false
			}
		}
		return math.Abs(prof.Mean()-p.Mean()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
