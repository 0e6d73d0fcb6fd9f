package telemetry

import (
	"strings"
	"testing"
	"time"
)

// Registration on a nil registry must be a no-op and every nil handle
// (histogram, sampler, phase timer) inert — the zero-cost-when-disabled
// contract the hot paths rely on.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	read := func() int64 { t.Fatal("nil registry called a read function"); return 0 }
	r.Counter("a", "", read)
	r.Gauge("b", "", func() float64 { return float64(read()) })
	h := r.Histogram("c", "", []float64{1, 2})
	if h != nil {
		t.Fatalf("nil registry handed out a non-nil histogram: %v", h)
	}
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram accumulated state")
	}
	if names := r.ScalarNames(); names != nil {
		t.Fatalf("nil registry has scalar names %v", names)
	}
	snap := r.Snapshot()
	if len(snap.Scalars) != 0 || len(snap.Hists) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var s *Sampler
	s.Tick(100)
	s.Flush(100)
	if s.Len() != 0 || s.Columns() != nil || s.Every() != 0 || s.Evicted() != 0 {
		t.Fatalf("nil sampler accumulated state")
	}
	if NewSampler(r, nil) != nil {
		t.Fatalf("nil registry built a non-nil sampler")
	}
	var pt *PhaseTimer
	pt.Observe(PhaseEval, pt.Start())
	pt.Merge(NewPhaseTimer())
	if pt.Breakdown() != nil {
		t.Fatalf("nil phase timer has a breakdown")
	}
	if err := pt.WriteText(&strings.Builder{}); err != nil {
		t.Fatalf("nil WriteText: %v", err)
	}
}

// A snapshot reads every scalar from its owner at the moment it is taken:
// the owner's changes show up with no sampler tick in between, and the
// registry keeps no copy that could lag.
func TestScalarSemantics(t *testing.T) {
	r := NewRegistry()
	var done int
	depth := 7.0
	r.Counter("done_total", "finished things", func() int64 { return int64(done) })
	r.Gauge("depth", "queue depth", func() float64 { return depth })
	check := func(wantDone, wantDepth float64) {
		t.Helper()
		snap := r.Snapshot()
		if len(snap.Scalars) != 2 ||
			snap.Scalars[0].Name != "done_total" || snap.Scalars[0].Kind != KindCounter || snap.Scalars[0].Value != wantDone ||
			snap.Scalars[1].Name != "depth" || snap.Scalars[1].Kind != KindGauge || snap.Scalars[1].Value != wantDepth {
			t.Fatalf("snapshot = %+v, want done_total=%v depth=%v", snap.Scalars, wantDone, wantDepth)
		}
	}
	check(0, 7)
	done += 5
	depth = 5
	check(5, 5)
	done = 42
	check(42, 5)
	if names := r.ScalarNames(); len(names) != 2 || names[0] != "done_total" || names[1] != "depth" {
		t.Fatalf("ScalarNames = %v", names)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "", func() int64 { return 0 })
	r.Gauge("x", "", func() float64 { return 0 })
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lag", "", []float64{10, 25, 50})
	for _, v := range []float64{0, 10, 10.5, 25, 49, 50, 51, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hv := snap.Hists[0]
	// v <= bound lands in that bucket: {0,10} | {10.5,25} | {49,50} | {51,1000}
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, hv.Counts[i], w, hv.Counts)
		}
	}
	if hv.Count != 8 || hv.Sum != 0+10+10.5+25+49+50+51+1000 {
		t.Fatalf("count %d sum %v", hv.Count, hv.Sum)
	}
}

func TestHistogramAccessorsAndBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lag", "", []float64{1})
	h.Observe(0.5)
	h.Observe(3)
	if h.Count() != 2 || h.Sum() != 3.5 {
		t.Fatalf("count %d sum %v, want 2, 3.5", h.Count(), h.Sum())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("non-ascending bounds did not panic")
		}
	}()
	r.Histogram("bad", "", []float64{2, 2})
}

// Sorted orders a merged snapshot by name for deterministic rendering and
// leaves its input untouched.
func TestSortedSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Gauge("zeta", "", func() float64 { return 1 })
	r.Counter("alpha_total", "", func() int64 { return 2 })
	r.Histogram("z_lag", "", []float64{1})
	r.Histogram("a_lag", "", []float64{1})
	snap := r.Snapshot()
	got := Sorted(snap)
	if got.Scalars[0].Name != "alpha_total" || got.Scalars[1].Name != "zeta" ||
		got.Hists[0].Name != "a_lag" || got.Hists[1].Name != "z_lag" {
		t.Fatalf("Sorted = %+v", got)
	}
	if snap.Scalars[0].Name != "zeta" || snap.Hists[0].Name != "z_lag" {
		t.Fatalf("Sorted reordered its input: %+v", snap)
	}
}

func TestSamplerBoundariesAndFlush(t *testing.T) {
	r := NewRegistry()
	var events int64
	r.Counter("events_total", "", func() int64 { return events })
	prepared := 0
	s := NewSampler(r, &Options{SampleEvery: 100, RingCap: 8})
	s.Prepare = func() { prepared++ }
	events++
	s.Tick(50) // before the first boundary: no row
	if s.Len() != 0 {
		t.Fatalf("row recorded before the first boundary")
	}
	events++
	s.Tick(250) // crosses 100 and 200
	if s.Len() != 2 || prepared != 2 {
		t.Fatalf("len=%d prepared=%d, want 2,2", s.Len(), prepared)
	}
	if row := s.Row(0); row[0] != 100 || row[1] != 2 {
		t.Fatalf("row 0 = %v, want [100 2]", row)
	}
	if row := s.Row(1); row[0] != 200 {
		t.Fatalf("row 1 tick = %v, want 200", row[0])
	}
	s.Flush(275) // final off-boundary row
	if s.Len() != 3 || s.Row(2)[0] != 275 {
		t.Fatalf("flush: len=%d last=%v", s.Len(), s.Row(s.Len()-1))
	}
	s.Flush(275) // idempotent: a row for 275 already exists
	if s.Len() != 3 {
		t.Fatalf("second flush duplicated the row: len=%d", s.Len())
	}
	cols := s.Columns()
	if len(cols) != 2 || cols[0] != "tick" || cols[1] != "events_total" {
		t.Fatalf("columns = %v", cols)
	}
}

func TestSamplerFlushOnBoundaryRecordsOnce(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", func() int64 { return 0 })
	s := NewSampler(r, &Options{SampleEvery: 100, RingCap: 8})
	s.Flush(200) // crosses 100 and 200; the 200 row must not double
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2 (rows at 100 and 200)", s.Len())
	}
	if s.Row(1)[0] != 200 {
		t.Fatalf("last row tick = %v", s.Row(1)[0])
	}
}

func TestSamplerRingBound(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total", "", func() int64 { return 1 })
	s := NewSampler(r, &Options{SampleEvery: 10, RingCap: 4})
	s.Tick(100) // 10 boundaries → 10 rows, 4 retained
	if s.Len() != 4 || s.Evicted() != 6 {
		t.Fatalf("len=%d evicted=%d, want 4,6", s.Len(), s.Evicted())
	}
	if s.Row(0)[0] != 70 || s.Row(3)[0] != 100 {
		t.Fatalf("ring kept [%v..%v], want [70..100]", s.Row(0)[0], s.Row(3)[0])
	}
}

func TestSamplerOnSampleHook(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", func() int64 { return 0 })
	s := NewSampler(r, &Options{SampleEvery: 50, RingCap: 4})
	var ticks []int64
	s.OnSample = func(tick int64) { ticks = append(ticks, tick) }
	s.Tick(120)
	if len(ticks) != 2 || ticks[0] != 50 || ticks[1] != 100 {
		t.Fatalf("OnSample ticks = %v", ticks)
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := NewRegistry()
	a.Counter("done_total", "", func() int64 { return 3 })
	a.Gauge("depth", "", func() float64 { return 5 })
	a.Histogram("lag", "", []float64{10}).Observe(4)
	b := NewRegistry()
	b.Counter("done_total", "", func() int64 { return 4 })
	b.Gauge("depth", "", func() float64 { return 9 })
	b.Histogram("lag", "", []float64{10}).Observe(40)
	b.Counter("extra_total", "", func() int64 { return 1 })

	m := Merge(a.Snapshot(), b.Snapshot())
	got := map[string]float64{}
	for _, s := range m.Scalars {
		got[s.Name] = s.Value
	}
	if got["done_total"] != 7 {
		t.Fatalf("merged counter = %v, want 7", got["done_total"])
	}
	if got["depth"] != 5 {
		t.Fatalf("merged gauge = %v, want the receiver's 5", got["depth"])
	}
	if got["extra_total"] != 1 {
		t.Fatalf("appended counter = %v", got["extra_total"])
	}
	if m.Hists[0].Count != 2 || m.Hists[0].Counts[0] != 1 || m.Hists[0].Counts[1] != 1 {
		t.Fatalf("merged hist = %+v", m.Hists[0])
	}
}

func TestPhaseTimer(t *testing.T) {
	pt := NewPhaseTimer()
	t0 := pt.Start()
	time.Sleep(time.Millisecond)
	pt.Observe(PhaseEval, t0)
	other := NewPhaseTimer()
	o0 := other.Start()
	other.Observe(PhaseConvolve, o0)
	pt.Merge(other)
	bd := pt.Breakdown()
	if bd[PhaseEval].Count != 1 || bd[PhaseEval].Total <= 0 {
		t.Fatalf("eval stat = %+v", bd[PhaseEval])
	}
	if bd[PhaseConvolve].Count != 1 {
		t.Fatalf("merge lost the convolve span: %+v", bd[PhaseConvolve])
	}
	var sb strings.Builder
	if err := pt.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(sb.String(), "eval") || !strings.Contains(sb.String(), "phase timings") {
		t.Fatalf("WriteText output:\n%s", sb.String())
	}
}
