package main

import "time"

// Host-speed normalization. The hosts this benchmark runs on are shared
// virtual machines whose speed drifts by tens of percent within a minute,
// and the drift moves CPU time as much as wall time. So a run also times a
// fixed reference loop right before every trial, session and kernel
// measurement, and reports each of those times scaled to the speed at
// which the loop takes refNominal:
//
//	reported = measured × refNominal / (reference loop time around it)
//
// "Around it" is the median of the reference times of the operation and of
// its refWindow neighbours on each side, which keeps one preempted sample
// from skewing an operation. Rates are divided by the same factor. The
// reference loop is the benchmark's own code, so no change to the program
// moves it. The `#` lines print the unscaled samples.

// refNominal is the reference loop's time at the speed metrics are
// reported at.
const refNominal = 3 * time.Millisecond

// refWindow is how many neighbouring reference samples on each side join
// an operation's own.
const refWindow = 2

// refSmall and refLarge are the reference loop's working sets: one
// cache-resident, one that random reads spill out of the caches (8 MiB).
var refSmall, refLarge = refArray(1 << 14), refArray(1 << 20)

func refArray(n int) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i%97) / 97
	}
	return a
}

// refLoop runs the reference loop and returns how long it took: dependent
// floating-point multiply-adds over strided reads of the small array (the
// shape of the pmf kernels), then pseudo-random reads of the large one.
func refLoop() time.Duration {
	t0 := time.Now()
	s := 0.0
	a, mask := refSmall, len(refSmall)-1
	for r := 0; r < 40; r++ {
		for i := range a {
			s += a[i] * a[(i*7)&mask]
		}
	}
	b, j := refLarge, 0
	for r := 0; r < 200_000; r++ {
		j = (j*1103515245 + 12345) & (len(b) - 1)
		s += b[j]
	}
	sink += s
	return time.Since(t0)
}

// speedMeter collects a run's reference loop times, one per operation.
type speedMeter struct{ refs []float64 }

// sample times the reference loop and returns the sample's index.
func (m *speedMeter) sample() int {
	m.refs = append(m.refs, float64(refLoop()))
	return len(m.refs) - 1
}

// scale returns the factor turning a time measured right after sample i
// into a reported one.
func (m *speedMeter) scale(i int) float64 {
	lo, hi := max(0, i-refWindow), min(len(m.refs), i+refWindow+1)
	return float64(refNominal) / median(m.refs[lo:hi])
}

// runScale is the factor for aggregates over the whole run: the median of
// the per-sample factors.
func (m *speedMeter) runScale() float64 {
	f := make([]float64, len(m.refs))
	for i := range f {
		f[i] = m.scale(i)
	}
	if len(f) == 0 {
		return 1
	}
	return median(f)
}
