package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runJSON runs the benchmark from the repository root and decodes its
// result line.
func runJSON(t *testing.T, workload string, seed int64, trace bool) result {
	t.Helper()
	var buf bytes.Buffer
	if err := bench(options{workload: workload, seed: seed, trace: trace, root: ".."}, &buf); err != nil {
		t.Fatalf("%s seed %d: %v\n%s", workload, seed, err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s seed %d: %+v\n%s", workload, seed, res, buf.String())
	}
	return res
}

// TestRepeatableAtSeed runs the sharded workload twice at one seed, both
// untraced and traced: the simulated metric and the work counts must be
// identical, while the inputs of another seed must differ.
func TestRepeatableAtSeed(t *testing.T) {
	a := runJSON(t, "cluster-pet", 5, false)
	b := runJSON(t, "cluster-pet", 5, false)
	if a.Metrics["robustness_pct"] != b.Metrics["robustness_pct"] {
		t.Errorf("robustness_pct %v then %v at one seed", a.Metrics["robustness_pct"], b.Metrics["robustness_pct"])
	}
	ta := runJSON(t, "cluster-pet", 5, true)
	tb := runJSON(t, "cluster-pet", 5, true)
	for _, name := range []string{"simulator.mapping_events", "heuristics.map_calls", "cluster.pick_calls", "pmf.dropeval_cells", "pmf.convolvedrop_cells"} {
		if ta.Metrics[name] != tb.Metrics[name] || ta.Metrics[name].Value == 0 {
			t.Errorf("%s %v then %v at one seed", name, ta.Metrics[name], tb.Metrics[name])
		}
	}
	tc := runJSON(t, "cluster-pet", 6, true)
	if tc.Metrics["simulator.mapping_events"] == ta.Metrics["simulator.mapping_events"] {
		t.Errorf("seeds 5 and 6 gave the same mapping events %v", tc.Metrics["simulator.mapping_events"])
	}
}

// TestTrialPAMRepeatable replays trial-pam inputs on fresh benches, traced:
// robustness, mapping events and Map calls repeat exactly.
func TestTrialPAMRepeatable(t *testing.T) {
	run := func(k int) trialOut {
		b, err := newTrialBench(trialPAM)
		if err != nil {
			t.Fatal(err)
		}
		b.tr = newTracer()
		out, err := b.run(trialInput(b.matrix, trialPAM.level, 3, k), int32(k), false)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for k := 0; k < 2; k++ {
		x, y := run(k), run(k)
		if x.stats.RobustnessPct != y.stats.RobustnessPct || x.mappingEvents != y.mappingEvents || x.heur.calls != y.heur.calls {
			t.Errorf("input %d: robustness %v/%v, mapping events %d/%d, map calls %d/%d",
				k, x.stats.RobustnessPct, y.stats.RobustnessPct, x.mappingEvents, y.mappingEvents, x.heur.calls, y.heur.calls)
		}
		if x.heur.calls != x.mappingEvents {
			t.Errorf("input %d: %d Map calls for %d mapping events", k, x.heur.calls, x.mappingEvents)
		}
	}
}
