// Command perfbench is the repository benchmark. It runs one workload for
// a fixed time from a seed and prints, as the last line of its output, one
// JSON object: whether every output check passed, how many operations it
// attempted and how many failed, and the workload's metrics — the
// end-to-end ones on an untraced run (--trace 0), the per-layer ones on a
// traced run (--trace 1). Metric names and units come from BENCHMARK.json
// at the repository root. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload trial-pam --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository root (the working directory)
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks
	metrics           map[string]float64
	notes             []string // sample counts and other context, printed before the result
	spans             []span   // traced runs only
	speed             speedMeter
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*outcome, error){
	"trial-pam":   trialWorkload(trialPAM),
	"cluster-pet": trialWorkload(clusterPET),
	"serve-http":  serveWorkload,
}

// metricSpec is one metric's declaration in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	o.root = "."
	if err := bench(o, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func bench(o options, stdout io.Writer) error {
	spec, err := readSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	w, ok := workloads[o.workload]
	if !ok || !spec.lists(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	out, err := w(o)
	if err != nil {
		return err
	}
	if out.spans != nil {
		path := filepath.Join(o.root, ".bench_build", "perfbench", "trace-"+o.workload+".csv")
		if err := writeSpans(path, out.spans); err != nil {
			return err
		}
		out.notes = append(out.notes, fmt.Sprintf("%d spans written to %s", len(out.spans), path))
	}
	res, err := out.result(spec, o.trace)
	if err != nil {
		return err
	}
	out.notes = append(out.notes, fmt.Sprintf("times are scaled to the reference speed (calib.go): median factor %.4f over %d reference samples",
		out.speed.runScale(), len(out.speed.refs)))
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(stdout, "# CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("%d output checks failed", len(out.problems))
	}
	return nil
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) lists(workload string) bool {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

// result assembles the printed result. An untraced run must produce every
// end-to-end metric; a traced run reports every per-layer metric, as 0 for
// a layer the workload does not drive through a boundary the benchmark
// can wrap. A metric the code produces but BENCHMARK.json does not list is
// an error, so the two cannot drift apart.
func (o *outcome) result(spec *benchSpec, traced bool) (result, error) {
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	res := result{
		Correct:   len(o.problems) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range list {
		v, ok := o.metrics[m.Name]
		if !ok && !traced {
			return res, fmt.Errorf("workload did not measure end-to-end metric %s", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range o.metrics {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		return res, fmt.Errorf("metrics missing from BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
