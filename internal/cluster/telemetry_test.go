package cluster

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"taskprune/internal/simulator"
	"taskprune/internal/telemetry"
	"taskprune/internal/workload"
)

// telemetryTrial runs the fixed 3-DC detect-storm configuration with
// telemetry and phase timing enabled and returns the engine alongside the
// rendered multi-shard time-series CSV.
func telemetryTrial(t testing.TB, route string, parallel bool) (*Engine, []byte) {
	t.Helper()
	matrix := clusterPET(t)
	policy, err := NewPolicy(route)
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig(t, "PAM", matrix, 3, policy, detectStormScenario())
	cfg.RecordDispatch = true
	cfg.Parallel = parallel
	cfg.Telemetry = &telemetry.Options{SampleEvery: 50, RingCap: 256}
	cfg.Phases = true
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := clusterWorkload(t, matrix, 150, 42)
	if _, _, err := eng.RunSource(workload.FromTasks(tasks)); err != nil {
		t.Fatal(err)
	}

	var series bytes.Buffer
	if err := telemetry.WriteSamplersCSV(&series, eng.TelemetrySamplers()); err != nil {
		t.Fatal(err)
	}
	return eng, series.Bytes()
}

// TestGoldenClusterTelemetryDetect pins the sampler semantics: the full
// multi-shard time-series CSV of the 3-DC detection-storm trial is
// committed under testdata/ and must replay byte for byte. Regenerate
// with -update after an intentional probe change and review the diff.
func TestGoldenClusterTelemetryDetect(t *testing.T) {
	_, series := telemetryTrial(t, "pet-aware", false)
	checkGolden(t, "golden_telemetry_detect.csv", series)
}

// TestTelemetryDoesNotPerturbScheduling: the decision stream of the
// detect-storm trial with telemetry + phase timers enabled must be
// byte-identical to the committed golden produced with them disabled —
// the zero-cost contract seen from the scheduling side.
func TestTelemetryDoesNotPerturbScheduling(t *testing.T) {
	matrix := clusterPET(t)
	sc := detectStormScenario()
	_, wantDispatch, _, _ := clusterTrial(t, matrix, "PAM", "pet-aware", sc)

	policy, err := NewPolicy("pet-aware")
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig(t, "PAM", matrix, 3, policy, sc)
	cfg.RecordDispatch = true
	cfg.Telemetry = &telemetry.Options{SampleEvery: 50, RingCap: 256}
	cfg.Phases = true
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.RunSource(workload.FromTasks(clusterWorkload(t, matrix, 150, 42))); err != nil {
		t.Fatal(err)
	}
	got := eng.Dispatches()
	if len(got) != len(wantDispatch) {
		t.Fatalf("telemetry changed the dispatch count: %d vs %d", len(got), len(wantDispatch))
	}
	for i := range got {
		if got[i] != wantDispatch[i] {
			t.Fatalf("telemetry perturbed dispatch %d: %+v vs %+v", i, got[i], wantDispatch[i])
		}
	}
}

// TestClusterParallelTelemetryDeterminism extends the parallel byte-identity
// contract to the telemetry layer: every shard's time-series rows — engine
// gate probes and per-DC simulator probes — must be byte-identical between
// the sequential driver and the parallel driver (round-robin) at every
// GOMAXPROCS setting; stateful routes are refused. Runs under -race via
// make race-telemetry.
func TestClusterParallelTelemetryDeterminism(t *testing.T) {
	for _, route := range parallelRoutes {
		t.Run(route, func(t *testing.T) {
			if !stepsInParallel(t, route, detectStormScenario()) {
				return
			}
			_, want := telemetryTrial(t, route, false)
			for _, gmp := range []int{1, 4, 8} {
				prev := runtime.GOMAXPROCS(gmp)
				_, got := telemetryTrial(t, route, true)
				runtime.GOMAXPROCS(prev)
				if !bytes.Equal(got, want) {
					t.Fatalf("GOMAXPROCS=%d: parallel telemetry rows diverge from sequential (%d vs %d bytes)",
						gmp, len(got), len(want))
				}
			}
		})
	}
}

// scalarValues maps a registry snapshot's scalar names to their values.
func scalarValues(r *telemetry.Registry) map[string]float64 {
	vals := map[string]float64{}
	for _, s := range r.Snapshot().Scalars {
		vals[s.Name] = s.Value
	}
	return vals
}

// checkShardsCurrent asserts that every scalar the engine shard and the
// per-DC shards report equals what the owners' own accessors say right
// now: the gate statistics, the gate buffer depth, the believed and true
// health flags, and each simulator's failure, mapping, pruning, and
// eval-cache counters.
func checkShardsCurrent(t *testing.T, eng *Engine) {
	t.Helper()
	g := eng.Gate()
	lagMean := 0.0
	if g.Detections > 0 {
		lagMean = float64(g.DetectionLagTicks) / float64(g.Detections)
	}
	want := map[string]float64{
		"gate_detections_total":          float64(g.Detections),
		"gate_detection_lag_ticks_total": float64(g.DetectionLagTicks),
		"gate_detection_lag_mean":        lagMean,
		"gate_max_queue_depth":           float64(g.MaxQueueDepth),
		"gate_dropped_total":             float64(g.Dropped),
		"gate_shed_total":                float64(g.Shed),
		"gate_retries_total":             float64(g.Retries),
		"gate_bounced_total":             float64(g.Bounced),
		"gate_buffered_total":            float64(g.Buffered),
		"gate_lost_undetected_total":     float64(g.LostUndetected),
		"gate_queue_depth":               float64(len(eng.buf)),
	}
	var inService, healthy float64
	for _, d := range eng.DCList() {
		want[fmt.Sprintf("dc%d_in_service", d.Index())] = boolGauge(d.InService())
		want[fmt.Sprintf("dc%d_healthy", d.Index())] = boolGauge(d.Alive())
		inService += boolGauge(d.InService())
		healthy += boolGauge(d.Alive())
	}
	want["dcs_in_service"], want["dcs_healthy"] = inService, healthy
	checkScalars(t, "cluster", scalarValues(eng.Telemetry()), want)
	for _, d := range eng.DCList() {
		sim := d.Sim()
		checkScalars(t, fmt.Sprintf("dc%d", d.Index()), scalarValues(sim.Telemetry()), map[string]float64{
			"requeued_total":          float64(sim.Requeued()),
			"evicted_total":           float64(sim.Evicted()),
			"mapping_events_total":    float64(sim.MappingEvents()),
			"pruner_drops_total":      float64(sim.DroppedByPruner()),
			"eval_cache_hits_total":   float64(sim.EvalCache().Hits()),
			"eval_cache_misses_total": float64(sim.EvalCache().Misses()),
		})
	}
}

func checkScalars(t *testing.T, scope string, got, want map[string]float64) {
	t.Helper()
	for name, w := range want {
		if v, ok := got[name]; !ok || v != w {
			t.Errorf("%s %s = %v (registered %v), want %v", scope, name, v, ok, w)
		}
	}
}

// TestTelemetryProbeSemantics checks the shards' final scalars against the
// owners' accessors and the detection-lag histogram against the detection
// count.
func TestTelemetryProbeSemantics(t *testing.T) {
	eng, series := telemetryTrial(t, "pet-aware", false)
	g := eng.Gate()
	if g.Detections == 0 {
		t.Fatalf("detect-storm scenario produced no detections")
	}
	checkShardsCurrent(t, eng)
	snap := eng.Telemetry().Snapshot()
	if len(snap.Hists) == 0 || snap.Hists[0].Count != int64(g.Detections) {
		t.Errorf("detection-lag histogram count does not match Detections=%d", g.Detections)
	}
	// The per-DC shards must have accounted every gate-admitted task
	// (injected tasks enter through InjectRequeued and are mirrored by the
	// per-DC requeued/restored counters instead).
	admitted := scalarValues(eng.Telemetry())["gate_admitted_total"]
	var dcArrivals float64
	for _, d := range eng.DCList() {
		dcArrivals += scalarValues(d.Sim().Telemetry())["arrivals_total"]
	}
	if dcArrivals != admitted {
		t.Errorf("per-DC arrivals %v != gate admitted %v", dcArrivals, admitted)
	}
	if !bytes.Contains(series, []byte("# telemetry scope=cluster")) ||
		!bytes.Contains(series, []byte("# telemetry scope=dc2")) {
		t.Fatalf("series CSV missing shard blocks:\n%s", series[:min(len(series), 400)])
	}
}

// TestTelemetrySnapshotCurrentMidRun: a snapshot taken between sampler
// rows must agree with the owners' accessors, because the registry reads
// every counter from its owner instead of keeping a copy. A live
// heartbeat-failover run whose sampling interval lies beyond every tick
// it reaches records no row at all, so every value checked after Quiesce
// comes from the snapshot itself — exactly what the daemon publishes to
// /metrics after each settle.
func TestTelemetrySnapshotCurrentMidRun(t *testing.T) {
	matrix := clusterPET(t)
	cfg := clusterConfig(t, "PAM", matrix, 3, nil, liveDetectScenario())
	cfg.Telemetry = &telemetry.Options{SampleEvery: 1 << 40}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	liveSubmit(t, eng, clusterWorkload(t, matrix, 300, 11))
	if err := eng.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if n := eng.TelemetrySampler().Len(); n != 0 {
		t.Fatalf("sampler recorded %d rows; the snapshot would not be mid-interval", n)
	}
	g := eng.Gate()
	requeued := 0
	for _, d := range eng.DCList() {
		requeued += d.Sim().Requeued()
	}
	if g.Bounced == 0 || g.Retries == 0 || g.Detections == 0 || requeued == 0 {
		t.Fatalf("outage exercised too little to check: gate %+v, requeued %d", g, requeued)
	}
	checkShardsCurrent(t, eng)
}

// TestTelemetryPhaseBreakdown: with Config.Phases on, the merged breakdown
// must carry spans for every phase the trial exercises.
func TestTelemetryPhaseBreakdown(t *testing.T) {
	eng, _ := telemetryTrial(t, "pet-aware", false)
	pt := eng.Phases()
	if pt == nil {
		t.Fatal("Phases() nil with Config.Phases on")
	}
	bd := pt.Breakdown()
	for _, p := range []telemetry.Phase{telemetry.PhaseDispatch, telemetry.PhaseAdmit, telemetry.PhaseStep, telemetry.PhaseEval, telemetry.PhaseConvolve} {
		if bd[p].Count == 0 {
			t.Errorf("phase %s recorded no spans", p)
		}
	}
	var sb strings.Builder
	if err := pt.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dispatch") {
		t.Fatalf("phase table:\n%s", sb.String())
	}
}

// TestTelemetryTemplateValidation: per-DC simulators own their telemetry
// shards and phase timers; a template that smuggles either in is rejected,
// mirroring the existing Trace template rule.
func TestTelemetryTemplateValidation(t *testing.T) {
	matrix := clusterPET(t)
	base := clusterConfig(t, "PAM", matrix, 3, nil, nil)

	bad := base
	bad.Sim.Telemetry = &telemetry.Options{}
	if _, err := New(bad); err == nil {
		t.Error("template-level telemetry options accepted")
	}
	bad = base
	bad.Sim.PhaseTimer = telemetry.NewPhaseTimer()
	if _, err := New(bad); err == nil {
		t.Error("template-level phase timer accepted")
	}
	// Simulator-level knobs still work when used directly.
	simCfg := base.Sim
	simCfg.Machines = []int{0, 1}
	simCfg.Telemetry = &telemetry.Options{SampleEvery: 10}
	simCfg.PhaseTimer = telemetry.NewPhaseTimer()
	if _, err := simulator.New(simCfg); err != nil {
		t.Fatalf("direct simulator telemetry rejected: %v", err)
	}
}
