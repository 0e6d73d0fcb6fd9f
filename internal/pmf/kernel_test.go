package pmf_test

import (
	"math"
	"math/rand"
	"testing"

	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// specPET builds the 12×8 SPEC-like PET matrix at the experiments' PET
// profiling seed.
func specPET() *pet.Matrix {
	return pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0xBEEF))
}

// threeTables is the reference Profile: separate CDF, CCDF and
// partial-expectation tables, built by the same prefix loop and read with
// the same clamps as the original three-table layout. The interleaved
// Profile must reproduce every accessor of it bit for bit.
type threeTables struct {
	start          int64
	cdf, ccdf, pex []float64
}

func newThreeTables(p *pmf.PMF) threeTables {
	tt := threeTables{start: p.Start()}
	var c, e float64
	for t := p.Start(); t <= p.End(); t++ {
		v := p.At(t)
		c += v
		e += v * float64(t)
		tt.cdf = append(tt.cdf, c)
		tt.ccdf = append(tt.ccdf, 1-c)
		tt.pex = append(tt.pex, e)
	}
	return tt
}

// slot clamps tick t into the tables; ok is false below (or without)
// support.
func (tt threeTables) slot(t int64) (i int, ok bool) {
	if len(tt.cdf) == 0 || t < tt.start {
		return 0, false
	}
	return int(min(t-tt.start, int64(len(tt.cdf))-1)), true
}

func (tt threeTables) CDF(t int64) float64 {
	if i, ok := tt.slot(t); ok {
		return tt.cdf[i]
	}
	return 0
}

func (tt threeTables) CCDF(t int64) float64 {
	if i, ok := tt.slot(t); ok {
		return tt.ccdf[i]
	}
	return 1
}

func (tt threeTables) PartialMean(t int64) float64 {
	if i, ok := tt.slot(t); ok {
		return tt.pex[i]
	}
	return 0
}

// MeanCappedAt is E[X·1(X<=d)] + d·P(X>d), with the product rounded before
// the add (no fused multiply-add), as the Profile computes it.
func (tt threeTables) MeanCappedAt(d int64) float64 {
	return tt.PartialMean(d) + float64(float64(d)*tt.CCDF(d))
}

// checkAccessors asserts that every Profile accessor of p equals its
// three-table reference, bit for bit, on every tick from start−2 to end+2.
func checkAccessors(t *testing.T, name string, p *pmf.PMF) {
	t.Helper()
	pr, ref := pmf.NewProfile(p), newThreeTables(p)
	for tk := p.Start() - 2; tk <= p.End()+2; tk++ {
		for _, acc := range []struct {
			name      string
			got, want float64
		}{
			{"CDF", pr.CDF(tk), ref.CDF(tk)},
			{"CCDF", pr.CCDF(tk), ref.CCDF(tk)},
			{"PartialMean", pr.PartialMean(tk), ref.PartialMean(tk)},
			{"MeanCappedAt", pr.MeanCappedAt(tk), ref.MeanCappedAt(tk)},
		} {
			if math.Float64bits(acc.got) != math.Float64bits(acc.want) {
				t.Fatalf("%s: %s(%d) = %v, three-table reference %v", name, acc.name, tk, acc.got, acc.want)
			}
		}
	}
}

// TestProfileAccessorsMatchThreeTables pins the interleaved Profile's
// accessors to the three-table reference on random dense, random
// compacted sparse, impulse and empty PMFs, and on every SPEC PET entry
// (unscaled and under a degradation factor).
func TestProfileAccessorsMatchThreeTables(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		checkAccessors(t, "random dense", pmf.RandomPMF(r, 64))
		checkAccessors(t, "random sparse", pmf.RandomSparsePMF(r, 200))
	}
	checkAccessors(t, "impulse", pmf.Impulse(9))
	checkAccessors(t, "empty", &pmf.PMF{})
	m := specPET()
	for ti := 0; ti < m.NumTypes(); ti++ {
		for mi := 0; mi < m.NumMachines(); mi++ {
			checkAccessors(t, "SPEC PET", m.PMF(task.Type(ti), mi))
			checkAccessors(t, "SPEC PET scaled", m.ScaledPMF(task.Type(ti), mi, 1.37))
		}
	}
}

// kernelInputs are the pmf kernels' benchmark inputs, built from the SPEC
// PET the way the mapper builds them: a machine's queue tail is the
// evict-mode completion chain of its queued tasks, compacted to
// DefaultMaxImpulses after every step.
type kernelInputs struct {
	tail      *pmf.PMF       // compacted tail with DefaultMaxImpulses impulses
	wide      *pmf.PMF       // the uncompacted chain step tail was compacted from
	execs     []*pmf.PMF     // every task type's execution PMF on the machine
	profs     []*pmf.Profile // and their profiles
	deadlines []int64        // per-type deadline against tail
}

func newKernelInputs(tb testing.TB) kernelInputs {
	tb.Helper()
	m := specPET()
	const mi = 3
	var in kernelInputs
	for ti := 0; ti < m.NumTypes(); ti++ {
		tt := task.Type(ti)
		in.execs = append(in.execs, m.PMF(tt, mi))
		in.profs = append(in.profs, m.Profile(tt, mi))
	}
	slack := func(tt task.Type) int64 {
		return int64(m.TypeMeanAcrossMachines(tt) + 2*m.GrandMean())
	}
	prev := pmf.Impulse(0)
	for q := 0; q < 8 && prev.NumImpulses() < pmf.DefaultMaxImpulses; q++ {
		tt := task.Type(q % m.NumTypes())
		res := pmf.ConvolveDrop(prev, in.execs[tt], int64(prev.Mean())+slack(tt), pmf.Evict)
		in.wide = res.Free
		prev = pmf.Compact(in.wide, pmf.DefaultMaxImpulses)
	}
	if prev.NumImpulses() != pmf.DefaultMaxImpulses {
		tb.Fatalf("kernel tail has %d impulses, want %d", prev.NumImpulses(), pmf.DefaultMaxImpulses)
	}
	in.tail = prev
	for ti := range in.execs {
		in.deadlines = append(in.deadlines, int64(in.tail.Mean())+slack(task.Type(ti)))
	}
	return in
}

// BenchmarkKernelDropEval times one phase-one evaluation: DropEval of a
// compacted 32-impulse SPEC queue tail against each task type's profile in
// turn, under evict dropping.
func BenchmarkKernelDropEval(b *testing.B) {
	in := newKernelInputs(b)
	b.ReportAllocs()
	for k := 0; b.Loop(); k = (k + 1) % len(in.profs) {
		pmf.DropEval(in.tail, in.profs[k], in.deadlines[k], pmf.Evict)
	}
}

// BenchmarkKernelConvolveDropInto times the commit-path convolution: the
// compacted tail against each task type's execution PMF, into reused
// scratch.
func BenchmarkKernelConvolveDropInto(b *testing.B) {
	in := newKernelInputs(b)
	dst := &pmf.PMF{}
	b.ReportAllocs()
	for k := 0; b.Loop(); k = (k + 1) % len(in.execs) {
		pmf.ConvolveDropInto(dst, in.tail, in.execs[k], in.deadlines[k], pmf.Evict)
	}
}

// BenchmarkKernelCompact times compacting an uncompacted chain step back to
// DefaultMaxImpulses in an arena, reset per call as per mapping event.
func BenchmarkKernelCompact(b *testing.B) {
	in := newKernelInputs(b)
	a := pmf.NewArena()
	b.ReportAllocs()
	for b.Loop() {
		a.Compact(in.wide, pmf.DefaultMaxImpulses)
		a.Reset()
	}
}

// BenchmarkKernelMeanCappedAt times the capped-mean lookup across a SPEC
// profile's support and both clamped regions around it.
func BenchmarkKernelMeanCappedAt(b *testing.B) {
	in := newKernelInputs(b)
	pr := in.profs[0]
	lo, hi := pr.PMF().Start()-4, pr.PMF().End()+4
	b.ReportAllocs()
	for d := lo; b.Loop(); d++ {
		if d > hi {
			d = lo
		}
		pr.MeanCappedAt(d)
	}
}
