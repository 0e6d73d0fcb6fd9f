package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"taskprune/internal/scenario"
	"taskprune/internal/task"
	"taskprune/internal/workload"
)

// churnOutageScenario layers machine-scoped churn (a fail/recover cycle
// and a degradation drift) on top of a whole-DC outage, so the parallel
// driver is exercised across every event family at once.
func churnOutageScenario(policy scenario.Policy) *scenario.Scenario {
	return scenario.New("churn-outage").
		FailAt(60, 2, policy).
		RecoverAt(180, 2).
		DriftAt(80, 240, 4, 1.0, 1.8, 4).
		DCFailAt(100, 0, policy).
		DCRecoverAt(250, 0)
}

// parallelRoutes are the rows of the parallel determinism matrices: every
// built-in route.
var parallelRoutes = []string{"pet-aware", "least-queued", "round-robin"}

// stepsInParallel reports whether route may run with Config.Parallel. A
// stateful route's row of a parallel matrix has no parallel run to
// compare; it checks instead that New refuses Parallel under sc.
func stepsInParallel(t *testing.T, route string, sc *scenario.Scenario) bool {
	t.Helper()
	policy := NewPolicyOrDie(t, route)
	if IsStateFree(policy) {
		return true
	}
	cfg := clusterConfig(t, "PAM", clusterPET(t), 3, policy, sc)
	cfg.Parallel = true
	if _, err := New(cfg); err == nil {
		t.Fatalf("New accepted Parallel behind stateful route %s", route)
	}
	return false
}

// firstHealthy is a custom Policy that does not declare StateFree.
type firstHealthy struct{}

func (firstHealthy) Name() string { return "first-healthy" }

func (firstHealthy) Pick(_ int64, _ *task.Task, dcs []*DC) int {
	for i, d := range dcs {
		if d.Alive() {
			return i
		}
	}
	return 0
}

// TestNewParallelNeedsStateFreePolicy: the parallel driver routes whole
// windows ahead of the stepping workers, so New accepts Parallel only
// behind a StateFreeRouter. It refuses the stateful built-ins and a
// custom Policy without StateFree, naming the policy, and accepts
// round-robin and the nil (round-robin) default.
func TestNewParallelNeedsStateFreePolicy(t *testing.T) {
	matrix := clusterPET(t)
	for _, c := range []struct {
		name   string
		policy Policy
		ok     bool
	}{
		{"pet-aware", PETAware{}, false},
		{"least-queued", LeastQueued{}, false},
		{"custom", firstHealthy{}, false},
		{"round-robin", &RoundRobin{}, true},
		{"nil", nil, true},
	} {
		cfg := clusterConfig(t, "PAM", matrix, 3, c.policy, nil)
		cfg.Parallel = true
		_, err := New(cfg)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: Parallel rejected: %v", c.name, err)
		case !c.ok && err == nil:
			t.Errorf("%s: Parallel accepted behind a stateful policy", c.name)
		case !c.ok && !strings.Contains(err.Error(), fmt.Sprintf("%q", c.policy.Name())):
			t.Errorf("%s: rejection does not name the policy: %v", c.name, err)
		}
	}
}

// TestClusterParallelStepDeterminism is the parallel engine's contract:
// for state-free routing (round-robin), under a static fleet and under
// churn-with-outages, the full deterministic record — per-DC decision
// traces, dispatch log, cluster and per-DC statistics — is byte-identical
// to the sequential interleave at every GOMAXPROCS setting; stateful
// routes are refused. Run under -race (make race-cluster / race-stream),
// this doubles as the data-race proof for the shared collector and the
// worker handoffs.
func TestClusterParallelStepDeterminism(t *testing.T) {
	matrix := clusterPET(t)
	scenarios := []struct {
		name string
		sc   *scenario.Scenario
	}{
		{"static", nil},
		{"churn-outage", churnOutageScenario(scenario.Requeue)},
		{"churn-outage-drop", churnOutageScenario(scenario.Drop)},
	}
	for _, route := range parallelRoutes {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/%s", route, sc.name), func(t *testing.T) {
				if !stepsInParallel(t, route, sc.sc) {
					return
				}
				wantBlob, _, wantStats, wantPerDC := clusterTrialMode(t, matrix, "PAM", route, sc.sc, false)
				for _, gmp := range []int{1, 4, 8} {
					prev := runtime.GOMAXPROCS(gmp)
					blob, _, stats, perDC := clusterTrialMode(t, matrix, "PAM", route, sc.sc, true)
					runtime.GOMAXPROCS(prev)
					if string(blob) != string(wantBlob) {
						t.Fatalf("GOMAXPROCS=%d: parallel record diverges from sequential (%d vs %d bytes)",
							gmp, len(blob), len(wantBlob))
					}
					if !reflect.DeepEqual(stats, wantStats) {
						t.Fatalf("GOMAXPROCS=%d: cluster stats diverge:\nseq: %+v\npar: %+v", gmp, wantStats, stats)
					}
					if !reflect.DeepEqual(perDC, wantPerDC) {
						t.Fatalf("GOMAXPROCS=%d: per-DC stats diverge", gmp)
					}
				}
			})
		}
	}
}

// TestParallelGateDrops pins the parallel driver's gate-drop path: a
// total blackout drops arrivals at the gate from the dispatcher goroutine
// while workers drain concurrently, and the count and aggregate match the
// sequential run exactly.
func TestParallelGateDrops(t *testing.T) {
	matrix := clusterPET(t)
	tasks := clusterWorkload(t, matrix, 150, 9)
	sc := scenario.New("blackout").
		DCFailAt(100, 0, scenario.Requeue).
		DCFailAt(100, 1, scenario.Requeue)
	run := func(parallel bool) (int, int) {
		cfg := clusterConfig(t, "MM", matrix, 2, nil, sc)
		cfg.Parallel = parallel
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := eng.RunSource(workload.FromTasks(tasks))
		if err != nil {
			t.Fatal(err)
		}
		return eng.GateDrops(), st.Total
	}
	seqDrops, seqTotal := run(false)
	parDrops, parTotal := run(true)
	if seqDrops == 0 {
		t.Fatal("blackout scenario produced no gate drops")
	}
	if parDrops != seqDrops || parTotal != seqTotal {
		t.Fatalf("parallel gate accounting diverged: drops %d vs %d, total %d vs %d",
			parDrops, seqDrops, parTotal, seqTotal)
	}
}
