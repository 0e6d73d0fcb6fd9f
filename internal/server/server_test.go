package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"taskprune/internal/scenario"
)

// testConfig builds a small video-fleet (4×4) config, optionally mutated.
func testConfig(t *testing.T, mut func(*Config)) *Config {
	t.Helper()
	c, err := ParseConfig(strings.NewReader(`{"name":"test","fleet":{"pet":"video"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if mut != nil {
		mut(c)
	}
	return c
}

// newTestServer boots a daemon without starting the pump; tests that need
// the pump call s.Start() themselves.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, http.Handler) {
	t.Helper()
	s, err := New(testConfig(t, mut))
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Handler()
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func getStatus(t *testing.T, h http.Handler) Status {
	t.Helper()
	w := do(t, h, "GET", "/v1/status", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/status = %d: %s", w.Code, w.Body)
	}
	var st Status
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("status decode: %v\n%s", err, w.Body)
	}
	return st
}

// waitFor polls the status endpoint until cond holds or the deadline hits.
func waitFor(t *testing.T, h http.Handler, what string, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := getStatus(t, h)
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; last status: %+v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSubmitStatusDrain(t *testing.T) {
	s, h := newTestServer(t, nil)
	s.Start()

	w := do(t, h, "POST", "/v1/tasks", `{"tasks":[{"type":0,"count":10},{"type":3,"count":10}]}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("batch submit = %d: %s", w.Code, w.Body)
	}
	var resp submitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 20 {
		t.Fatalf("accepted %d of 20", resp.Accepted)
	}

	// A bare single-task object is also a valid body.
	if w := do(t, h, "POST", "/v1/tasks", `{"type":1,"deadline_in":500}`); w.Code != http.StatusAccepted {
		t.Fatalf("single submit = %d: %s", w.Code, w.Body)
	}

	st := waitFor(t, h, "21 admitted", func(st Status) bool {
		return st.Submitted == 21 && st.QueueDepth == 0
	})
	if st.Accepted != 21 {
		t.Fatalf("accepted counter %d, want 21", st.Accepted)
	}
	if st.Window != 21 {
		t.Fatalf("what-if window %d, want 21", st.Window)
	}
	if st.Draining || st.Final != nil || st.Error != "" {
		t.Fatalf("premature terminal state: %+v", st)
	}
	if len(st.DCs) != 1 || len(st.DCs[0].Machines) != 4 {
		t.Fatalf("dc breakdown %+v, want one 4-machine dc", st.DCs)
	}

	drain(t, s)
	fin := s.Final()
	if fin == nil {
		t.Fatal("no final stats after drain")
	}
	if fin.Total != 21 {
		t.Fatalf("final accounts %d tasks, want 21", fin.Total)
	}

	st = getStatus(t, h)
	if !st.Draining || st.Final == nil {
		t.Fatalf("post-drain status lacks terminal state: %+v", st)
	}
	if st.Counts.Total != 21 {
		t.Fatalf("post-drain counts.total %d, want 21", st.Counts.Total)
	}
	if w := do(t, h, "GET", "/healthz", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain = %d, want 503", w.Code)
	}
	if w := do(t, h, "POST", "/v1/tasks", `{"type":0}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %d, want 503", w.Code)
	}
}

func TestBackpressure429(t *testing.T) {
	// No pump: the buffer fills and stays full, so the 429 is deterministic.
	s, h := newTestServer(t, func(c *Config) { c.Queue = 2 })

	w := do(t, h, "POST", "/v1/tasks", `{"type":0,"count":5}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overfull submit = %d: %s", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var resp submitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 {
		t.Fatalf("partial batch accepted %d, want 2 (queue capacity)", resp.Accepted)
	}
	if resp.Error == "" {
		t.Fatal("429 body without error message")
	}

	st := getStatus(t, h)
	if st.Accepted != 2 || st.Rejected != 1 || st.QueueDepth != 2 {
		t.Fatalf("status accepted=%d rejected=%d depth=%d, want 2/1/2", st.Accepted, st.Rejected, st.QueueDepth)
	}
	// The daemon is still healthy — backpressure is not failure.
	if w := do(t, h, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz under backpressure = %d, want 200", w.Code)
	}
	s.Start()
	drain(t, s)
	if fin := s.Final(); fin == nil || fin.Total != 2 {
		t.Fatalf("final = %+v, want the 2 buffered tasks accounted", fin)
	}
}

func TestSubmitRejections(t *testing.T) {
	s, h := newTestServer(t, nil)
	cases := []struct {
		name, body string
	}{
		{"malformed", `{"type":`},
		{"unknown-field", `{"type":0,"priority":9}`},
		{"unknown-field-batch", `{"tasks":[{"type":0}],"mode":"turbo"}`},
		{"type-too-big", `{"type":99}`},
		{"type-negative", `{"type":-1}`},
		{"negative-count", `{"type":0,"count":-2}`},
		{"negative-deadline", `{"type":0,"deadline_in":-5}`},
		{"empty-batch", `{"tasks":[]}`},
		{"over-cap", `{"type":0,"count":10001}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if w := do(t, h, "POST", "/v1/tasks", tc.body); w.Code != http.StatusBadRequest {
				t.Fatalf("%s = %d: %s", tc.body, w.Code, w.Body)
			}
		})
	}
	// Nothing slipped past validation into the buffer.
	if st := getStatus(t, h); st.Accepted != 0 || st.QueueDepth != 0 {
		t.Fatalf("rejected bodies leaked into the buffer: %+v", st)
	}
	if w := do(t, h, "GET", "/v1/tasks", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/tasks = %d, want 405", w.Code)
	}
	s.Start()
	drain(t, s)
}

func TestWhatif(t *testing.T) {
	s, h := newTestServer(t, nil)
	s.Start()
	if w := do(t, h, "POST", "/v1/whatif", `{"heuristic":"MM"}`); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("whatif on empty window = %d, want 422", w.Code)
	}

	if w := do(t, h, "POST", "/v1/tasks", `{"tasks":[{"type":0,"count":15},{"type":2,"count":15}]}`); w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	waitFor(t, h, "window populated", func(st Status) bool { return st.Window == 30 && st.QueueDepth == 0 })

	w := do(t, h, "POST", "/v1/whatif", `{"heuristic":"MM","route":"least-queued"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("whatif = %d: %s", w.Code, w.Body)
	}
	var res WhatifResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Window != 30 {
		t.Fatalf("replayed window %d, want 30", res.Window)
	}
	if res.Baseline.Heuristic != "PAM" || res.Candidate.Heuristic != "MM" {
		t.Fatalf("heuristics %q vs %q, want PAM vs MM", res.Baseline.Heuristic, res.Candidate.Heuristic)
	}
	if res.Candidate.Route != "least-queued" {
		t.Fatalf("candidate route %q", res.Candidate.Route)
	}
	if res.Baseline.Total != 30 || res.Candidate.Total != 30 {
		t.Fatalf("replay totals %d/%d, want 30/30", res.Baseline.Total, res.Candidate.Total)
	}
	if got := res.Candidate.RobustnessPct - res.Baseline.RobustnessPct; got != res.DeltaPct {
		t.Fatalf("delta %v inconsistent with outcomes (%v)", res.DeltaPct, got)
	}

	// Replays are advisory: the live engine's state must be untouched.
	before := getStatus(t, h)
	for i := 0; i < 3; i++ {
		if w := do(t, h, "POST", "/v1/whatif", `{"dcs":2,"route":"pet-aware"}`); w.Code != http.StatusOK {
			t.Fatalf("whatif #%d = %d: %s", i, w.Code, w.Body)
		}
	}
	if after := getStatus(t, h); after.Submitted != before.Submitted || after.Counts != before.Counts {
		t.Fatalf("whatif perturbed the live engine: %+v vs %+v", before, after)
	}

	if w := do(t, h, "POST", "/v1/whatif", `{"heuristic":"YOLO"}`); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid override = %d, want 422", w.Code)
	}
	if w := do(t, h, "POST", "/v1/whatif", `{"beta":9}`); w.Code != http.StatusBadRequest {
		t.Fatalf("non-overridable field = %d, want 400", w.Code)
	}
	drain(t, s)
}

func TestServeEndpoints(t *testing.T) {
	s, h := newTestServer(t, nil)
	s.Start()

	if w := do(t, h, "GET", "/healthz", ""); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", w.Code, w.Body)
	}
	w := do(t, h, "GET", "/", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Header().Get("Content-Type"), "text/html") {
		t.Fatalf("index = %d %q", w.Code, w.Header().Get("Content-Type"))
	}
	if !strings.Contains(w.Body.String(), "hcsim serve") {
		t.Fatal("status page lacks title")
	}
	if w := do(t, h, "GET", "/metrics", ""); w.Code != http.StatusOK {
		t.Fatalf("metrics = %d: %s", w.Code, w.Body)
	}
	w = do(t, h, "GET", "/metrics.json", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics.json = %d", w.Code)
	}
	var anyJSON map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &anyJSON); err != nil {
		t.Fatalf("metrics.json not JSON: %v", err)
	}
	drain(t, s)
}

// TestDrainFlushesBuffered pins the graceful-drain ordering: submissions
// buffered at shutdown are admitted and accounted before the engine
// finalizes, never discarded.
func TestDrainFlushesBuffered(t *testing.T) {
	s, h := newTestServer(t, nil)
	// Fill the buffer before the pump exists, then start and immediately
	// drain: Close delivers everything buffered before reporting exhaustion.
	if w := do(t, h, "POST", "/v1/tasks", `{"type":1,"count":40}`); w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	s.Start()
	drain(t, s)
	fin := s.Final()
	if fin == nil || fin.Total != 40 {
		t.Fatalf("final = %+v, want all 40 buffered tasks accounted", fin)
	}
	// Exit tallies are over the trimmed window, which must itself be fully
	// accounted.
	if fin.Completed+fin.Missed+fin.Dropped != fin.Window {
		t.Fatalf("exit tallies do not add up: %+v", fin)
	}
}

// TestMetricsAgreeWithStatus: after submissions settle, the gate counters
// and datacenter health /metrics.json reports must equal /v1/status's,
// even with a sampling interval no run reaches — both surfaces come from
// the same publish, and the registry reads the engine's own counters.
func TestMetricsAgreeWithStatus(t *testing.T) {
	s, h := newTestServer(t, func(c *Config) {
		c.DCs = 2
		c.SampleEvery = 1 << 40
		c.Scenario = scenario.New("outage").
			DCFailAt(1, 0, scenario.Requeue).
			WithFailover(scenario.FailoverPolicy{Kind: scenario.FailoverHeartbeat, HeartbeatEvery: 20, SuspectAfter: 2})
	})
	s.Start()
	const n = 40 // below publishEvery: only the settle publishes
	if w := do(t, h, "POST", "/v1/tasks", fmt.Sprintf(`{"type":0,"count":%d}`, n)); w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	waitFor(t, h, "burst settled", func(st Status) bool { return st.Submitted == n && st.QueueDepth == 0 })

	w := do(t, h, "GET", "/metrics.json", "")
	var shards map[string]struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &shards); err != nil {
		t.Fatalf("metrics.json: %v\n%s", err, w.Body)
	}
	st := getStatus(t, h)
	g := st.Gate
	if g.Detections == 0 || st.DCs[0].InService {
		t.Fatalf("outage not exercised: gate %+v, dcs %+v", g, st.DCs)
	}
	want := map[string]float64{
		"gate_dropped_total":             float64(g.Dropped),
		"gate_shed_total":                float64(g.Shed),
		"gate_lost_undetected_total":     float64(g.LostUndetected),
		"gate_retries_total":             float64(g.Retries),
		"gate_bounced_total":             float64(g.Bounced),
		"gate_buffered_total":            float64(g.Buffered),
		"gate_detections_total":          float64(g.Detections),
		"gate_detection_lag_ticks_total": float64(g.DetectionLagTicks),
		"gate_max_queue_depth":           float64(g.MaxQueueDepth),
	}
	var inService, healthy float64
	for _, d := range st.DCs {
		want[fmt.Sprintf("dc%d_in_service", d.Index)] = flag(d.InService)
		want[fmt.Sprintf("dc%d_healthy", d.Index)] = flag(d.Healthy)
		inService += flag(d.InService)
		healthy += flag(d.Healthy)
	}
	want["dcs_in_service"], want["dcs_healthy"] = inService, healthy
	cl := shards["cluster"]
	for name, v := range want {
		got, ok := cl.Counters[name]
		if !ok {
			got, ok = cl.Gauges[name]
		}
		if !ok || got != v {
			t.Errorf("/metrics.json %s = %v (present %v), /v1/status says %v", name, got, ok, v)
		}
	}
	drain(t, s)
}

func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TestStatusKeepsUpWithinBurst pins the status-staleness fix: a burst
// that never finds the source empty still republishes, so the published
// submitted count trails the engine by fewer than publishEvery tasks. The
// pump is not started; the test drives one burst itself over a pre-filled
// source, so nothing depends on timing.
func TestStatusKeepsUpWithinBurst(t *testing.T) {
	s, h := newTestServer(t, func(c *Config) { c.Queue = 3 * publishEvery })
	n := 2*publishEvery + publishEvery/2
	if w := do(t, h, "POST", "/v1/tasks", fmt.Sprintf(`{"type":0,"count":%d}`, n)); w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	first, ok, _ := s.src.Poll()
	if !ok {
		t.Fatal("pre-filled source is empty")
	}
	if err := s.burst(first); err != nil {
		t.Fatal(err)
	}
	if admitted := s.eng.Submitted(); admitted != n || s.src.Len() != 0 {
		t.Fatalf("burst admitted %d of %d, %d left buffered", admitted, n, s.src.Len())
	}
	if lag := n - getStatus(t, h).Submitted; lag < 0 || lag >= publishEvery {
		t.Fatalf("published submitted trails the %d admitted by %d, want < %d", n, lag, publishEvery)
	}
	s.Start()
	drain(t, s)
	if fin := s.Final(); fin == nil || fin.Total != n {
		t.Fatalf("final = %+v, want all %d tasks accounted", fin, n)
	}
}
