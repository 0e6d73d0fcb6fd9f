package main

import (
	"slices"
	"time"
)

// Percentile rule. A timing is reported as its median and as the highest
// percentile that still has at least minTail samples beyond it, together
// with the sample count. Percentiles are written in permille (900 = p90)
// so the rank arithmetic stays exact, and use the nearest-rank definition:
// the p-th percentile of n sorted samples is the one at 1-based rank
// ceil(p·n/1000), leaving n − rank samples beyond it.

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// ladder lists the percentiles the rule chooses from, in permille.
var ladder = []int{500, 900, 990, 999}

// rank returns the 1-based nearest-rank position of percentile pm in n
// samples.
func rank(n, pm int) int { return max(1, (pm*n+999)/1000) }

// supports reports whether n samples leave at least minTail beyond pm.
func supports(n, pm int) bool { return n-rank(n, pm) >= minTail }

// highestPercentile returns the highest ladder percentile n samples
// support; ok is false when not even the median has minTail beyond it.
func highestPercentile(n int) (pm int, ok bool) {
	for _, p := range ladder {
		if supports(n, p) {
			pm, ok = p, true
		}
	}
	return pm, ok
}

// dist is a sorted sample of one timing or count.
type dist []float64

func newDist(xs []float64) dist {
	d := slices.Clone(xs)
	slices.Sort(d)
	return d
}

// at returns the nearest-rank percentile pm (0 for an empty sample).
func (d dist) at(pm int) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[rank(len(d), pm)-1]
}

// median returns the middle value, averaging the two middle ones of an
// even-sized sample (the rule the set-up time uses: few samples, and the
// two halves weigh alike).
func median(xs []float64) float64 {
	d := newDist(xs)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms and secs convert a duration to the float units metrics report.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }
