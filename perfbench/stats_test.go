package main

import "testing"

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pm     int
		wantOK bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 500, true},
		{99, 500, true},
		{100, 900, true},
		{999, 900, true},
		{1000, 990, true},
		{9999, 990, true},
		{10000, 999, true},
	} {
		pm, ok := highestPercentile(tc.n)
		if pm != tc.pm || ok != tc.wantOK {
			t.Errorf("highestPercentile(%d) = p%d, %v; want p%d, %v", tc.n, pm, ok, tc.pm, tc.wantOK)
		}
	}
}

// TestPercentileLeavesTailBeyond checks the rule on samples 1..n: the
// reported value has exactly n − rank samples above it, and a supported
// percentile always has at least minTail of them.
func TestPercentileLeavesTailBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: newDist must sort
		}
		d := newDist(xs)
		for _, pm := range ladder {
			v := d.at(pm)
			beyond := n - int(v)
			if beyond != n-rank(n, pm) {
				t.Fatalf("n=%d p%d: value %v leaves %d beyond, rank says %d", n, pm, v, beyond, n-rank(n, pm))
			}
			if supports(n, pm) != (beyond >= minTail) {
				t.Fatalf("n=%d p%d: supports=%v with %d beyond", n, pm, supports(n, pm), beyond)
			}
			if float64(n)*float64(pm)/1000 > v { // nearest rank covers at least pm‰ of the samples
				t.Fatalf("n=%d p%d: value %v below the %v-th sample", n, pm, v, float64(n)*float64(pm)/1000)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// TestWindowedPercentile checks that a stall confined to one window moves
// that window's tail only.
func TestWindowedPercentile(t *testing.T) {
	ops := make([][]float64, 3*rateWindow)
	for i := range ops {
		ops[i] = make([]float64, 100)
		for j := range ops[i] {
			ops[i][j] = float64(j + 1) // every window's p99 is 99
		}
	}
	for j := range ops[0] {
		ops[0][j] *= 1000 // a stalled first window
	}
	if got := windowedPercentile(ops, rateWindow, 990); got != 99 {
		t.Errorf("windowed p99 = %v, want 99", got)
	}
	if got := windowedPercentile(ops[:rateWindow-1], rateWindow, 990); got != 0 {
		t.Errorf("windowed p99 of less than one window = %v, want 0", got)
	}
	// One sample per operation, as trial times are pooled.
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i%100 + 1)
	}
	for i := 100; i < 200; i++ {
		xs[i] *= 10
	}
	if got := windowedPercentile(singles(xs), 100, 900); got != 90 {
		t.Errorf("windowed p90 over singles = %v, want 90", got)
	}
}

// TestWindowsSupportTheirPercentiles pins the window sizes to the
// percentile rule: every pool windowedPercentile reports from has at least
// minTail samples beyond its percentile.
func TestWindowsSupportTheirPercentiles(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n, pm int
	}{
		{"trial_p90_ms", minTrials, 900},
		{"submit_p99_us (trials)", rateWindow * trialTasks, 990},
		{"submit_p99_us (sessions)", rateWindow * sessionTasks, 990},
	} {
		if !supports(tc.n, tc.pm) {
			t.Errorf("%s: a window of %d samples leaves fewer than %d beyond p%d", tc.name, tc.n, minTail, tc.pm/10)
		}
	}
}
