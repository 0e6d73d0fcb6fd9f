package main

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"taskprune/internal/cluster"
	"taskprune/internal/heuristics"
	"taskprune/internal/metrics"
	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/simulator"
	"taskprune/internal/stats"
	"taskprune/internal/task"
	"taskprune/internal/telemetry"
	"taskprune/internal/workload"
)

// trialSpec fixes the system one trial workload simulates: PAM on the
// SPEC PET at an oversubscription level, either as the single 8-machine
// fleet (dcs 0) or sharded into dcs datacenters behind a routing policy
// on the cluster engine's sequential driver.
type trialSpec struct {
	level float64
	dcs   int
	route string
}

var (
	trialPAM   = trialSpec{level: workload.Level34k}
	clusterPET = trialSpec{level: workload.Level19k, dcs: 4, route: "pet-aware"}
)

const (
	// trialTasks is the paper's trial size.
	trialTasks = 800
	// trialInputs is how many distinct seeded trials a run cycles through;
	// robustness_pct and the per-trial work counts are means over one pass.
	trialInputs = 60
	// minTrials gives trial_p90_ms its minTail samples beyond the p90.
	minTrials = 100
	// specPETSeed is the PET profiling seed of experiments.SPECPET, so the
	// fleet built here is the repository's SPEC PET value for value.
	specPETSeed = 0xBEEF
)

// buildPET profiles the 12×8 SPEC-like PET afresh, exactly as
// experiments.SPECPET does once per process, so that set-up time includes
// the PET build on every repetition.
func buildPET() *pet.Matrix {
	return pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(specPETSeed))
}

// samePET reports whether two PETs hold identical distributions.
func samePET(a, b *pet.Matrix) bool {
	if a.NumTypes() != b.NumTypes() || a.NumMachines() != b.NumMachines() {
		return false
	}
	for ti := 0; ti < a.NumTypes(); ti++ {
		for mi := 0; mi < a.NumMachines(); mi++ {
			if !pmf.ApproxEqual(a.PMF(task.Type(ti), mi), b.PMF(task.Type(ti), mi), 0) {
				return false
			}
		}
	}
	return true
}

// inputSeed derives the RNG seed of the k-th input of a run from --seed.
func inputSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// trialInput generates the k-th seeded 800-task replay workload.
func trialInput(matrix *pet.Matrix, level float64, seed int64, k int) []*task.Task {
	return workload.MustGenerate(workload.Config{
		NumTasks: trialTasks, Rate: workload.RateForLevel(level), VarFrac: 0.10, Beta: 2.0,
	}, matrix, stats.NewRNG(inputSeed(seed, k)))
}

// trialOut is what one trial reports.
type trialOut struct {
	stats   metrics.TrialStats
	elapsed time.Duration // host time of the RunSource call
	// absorb[i] is the host time between the engine pulling arrival i and
	// pulling arrival i+1: the in-process counterpart of a closed-loop
	// submit.
	absorb        []float64
	mappingEvents int
	prunerDrops   int
	convolve      time.Duration // pruner phase (traced trials only)
	heur          *tracedHeuristic
	pickCalls     int
}

// trialBench runs trials of one spec on one built PET.
type trialBench struct {
	spec   trialSpec
	matrix *pet.Matrix
	cfg    simulator.Config
	tr     *tracer // nil: untraced trials
}

func newTrialBench(spec trialSpec) (*trialBench, error) {
	b := &trialBench{spec: spec, matrix: buildPET()}
	cfg, err := simulator.ConfigFor("PAM", b.matrix)
	if err != nil {
		return nil, err
	}
	b.cfg = cfg
	// Build (and drop) one engine, so set-up covers construction too.
	if spec.dcs == 0 {
		_, err = simulator.New(cfg)
	} else {
		_, err = b.newCluster(cfg, nil)
	}
	return b, err
}

// newCluster builds the sharded engine over the per-datacenter simulator
// template cfg. A non-nil traced wraps the fresh routing policy.
func (b *trialBench) newCluster(cfg simulator.Config, traced *tracedPolicy) (*cluster.Engine, error) {
	policy, err := cluster.NewPolicy(b.spec.route)
	if err != nil {
		return nil, err
	}
	if traced != nil {
		traced.Policy = policy
		policy = traced
	}
	return cluster.New(cluster.Config{DCs: b.spec.dcs, Policy: policy, Sim: cfg, Phases: b.tr != nil})
}

// run simulates one trial over tasks. With a tracer it also wraps the
// heuristic, the input stream and the dispatch policy in span-recording
// shims and turns the engine's phase timer on.
func (b *trialBench) run(tasks []*task.Task, id int32, naive bool) (trialOut, error) {
	var out trialOut
	root := b.tr.begin("trial", -1, id)
	defer b.tr.end(root)
	cfg := b.cfg
	cfg.NaiveEval = naive
	if b.tr != nil {
		out.heur = &tracedHeuristic{Heuristic: cfg.Heuristic, tr: b.tr, id: id}
		cfg.Heuristic = out.heur
	}
	src := &clockedSource{src: workload.FromTasks(tasks), tr: b.tr, id: id, calls: make([]time.Time, 0, len(tasks)+1)}

	var (
		sim   *simulator.Simulator
		eng   *cluster.Engine
		perDC []metrics.TrialStats
		err   error
	)
	var pol *tracedPolicy
	if b.spec.dcs == 0 {
		if b.tr != nil {
			cfg.PhaseTimer = telemetry.NewPhaseTimer()
		}
		sim, err = simulator.New(cfg)
	} else {
		if b.tr != nil {
			pol = &tracedPolicy{tr: b.tr, id: id}
		}
		eng, err = b.newCluster(cfg, pol)
	}
	if err != nil {
		return out, err
	}

	rs := b.tr.begin("simulator.runsource", root, id)
	src.parent = rs
	if out.heur != nil {
		out.heur.parent = rs
	}
	if pol != nil {
		pol.parent = rs
	}
	t0 := time.Now()
	if sim != nil {
		out.stats, err = sim.RunSource(src)
	} else {
		out.stats, perDC, err = eng.RunSource(src)
	}
	out.elapsed = time.Since(t0)
	b.tr.end(rs)
	if err != nil {
		return out, err
	}

	out.absorb = make([]float64, 0, len(src.calls))
	for i := 1; i < len(src.calls); i++ {
		out.absorb = append(out.absorb, float64(src.calls[i].Sub(src.calls[i-1])))
	}
	var phases *telemetry.PhaseTimer
	if sim != nil {
		out.mappingEvents, out.prunerDrops = sim.MappingEvents(), sim.DroppedByPruner()
		phases = cfg.PhaseTimer
	} else {
		for _, d := range eng.DCList() {
			out.mappingEvents += d.Sim().MappingEvents()
			out.prunerDrops += d.Sim().DroppedByPruner()
		}
		phases = eng.Phases()
	}
	for _, ph := range phases.Breakdown() {
		if ph.Phase == telemetry.PhaseConvolve {
			out.convolve = ph.Total
		}
	}
	if pol != nil {
		out.pickCalls = pol.calls
	}
	return out, checkTrial(out.stats, perDC, eng)
}

// checkTrial verifies a trial accounted for every task: the total is the
// trial size, and on a sharded trial the datacenters' totals plus the
// tasks dropped at the dispatcher's gate add up to it.
func checkTrial(st metrics.TrialStats, perDC []metrics.TrialStats, eng *cluster.Engine) error {
	if st.Total != trialTasks {
		return fmt.Errorf("trial accounted for %d of %d tasks", st.Total, trialTasks)
	}
	if st.Completed+st.Missed+st.Dropped+st.Approx != st.Window {
		return fmt.Errorf("trial window %d holds %d completed + %d missed + %d dropped + %d approx",
			st.Window, st.Completed, st.Missed, st.Dropped, st.Approx)
	}
	if eng == nil {
		return nil
	}
	n := eng.GateDrops()
	for _, d := range perDC {
		n += d.Total
	}
	if n != st.Total {
		return fmt.Errorf("datacenters account for %d tasks plus gate drops, the cluster for %d", n, st.Total)
	}
	return nil
}

// naiveCheck re-runs the first seeded trial-pam trial with the evaluation
// cache disabled; the statistics must be identical.
func naiveCheck(seed int64) error {
	b, err := newTrialBench(trialPAM)
	if err != nil {
		return err
	}
	cached, err := b.run(trialInput(b.matrix, trialPAM.level, seed, 0), 0, false)
	if err != nil {
		return err
	}
	naive, err := b.run(trialInput(b.matrix, trialPAM.level, seed, 0), 0, true)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(cached.stats, naive.stats) {
		return fmt.Errorf("naive eval gives %+v, cached eval %+v", naive.stats, cached.stats)
	}
	return nil
}

// clockedSource wraps a trial's input stream. It notes when each Next call
// starts (the gaps are the per-arrival absorb times) and, when tracing,
// records a workload.next span per call.
type clockedSource struct {
	src        workload.Source
	calls      []time.Time
	tr         *tracer
	parent, id int32
}

func (s *clockedSource) Next() (*task.Task, bool) {
	s.calls = append(s.calls, time.Now())
	sp := s.tr.begin("workload.next", s.parent, s.id)
	t, ok := s.src.Next()
	s.tr.end(sp)
	return t, ok
}

// tracedHeuristic records a heuristics.map span around every Map call and
// counts what the calls did.
type tracedHeuristic struct {
	heuristics.Heuristic
	tr                 *tracer
	parent, id         int32
	calls, batch       int
	assigned, deferred int
	caches             []*heuristics.EvalCache
}

func (h *tracedHeuristic) Map(ctx *heuristics.Context, batch []*task.Task) heuristics.Result {
	sp := h.tr.begin("heuristics.map", h.parent, h.id)
	res := h.Heuristic.Map(ctx, batch)
	h.tr.end(sp)
	h.calls++
	h.batch += len(batch)
	h.assigned += len(res.Assigned)
	h.deferred += len(res.Deferred)
	if c := ctx.Cache; c != nil && !slices.Contains(h.caches, c) {
		h.caches = append(h.caches, c)
	}
	return res
}

// cacheCounts sums the evaluation-cache hits and misses of every
// datacenter's cache the heuristic saw.
func (h *tracedHeuristic) cacheCounts() (hits, misses int64) {
	for _, c := range h.caches {
		hits += c.Hits()
		misses += c.Misses()
	}
	return hits, misses
}

// tracedPolicy records a cluster.pick span around every dispatch decision.
type tracedPolicy struct {
	cluster.Policy
	tr         *tracer
	parent, id int32
	calls      int
}

func (p *tracedPolicy) Pick(now int64, t *task.Task, dcs []*cluster.DC) int {
	sp := p.tr.begin("cluster.pick", p.parent, p.id)
	d := p.Policy.Pick(now, t, dcs)
	p.tr.end(sp)
	p.calls++
	return d
}
