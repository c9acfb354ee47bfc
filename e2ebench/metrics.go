package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's metric contract; BENCHMARK.json lists the same names
// (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are printed by a plain run (-trace 0). Every workload reports
// every one of them, each measured on that workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s_p50", "s"},
	{"peak_rss_mb", "MB"},
	{"max_rate_jobs_s", "1/s"},
}

// perLayer are printed by a traced run (-trace 1). A layer a workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"graph.generate_s", "s"},
	{"graph.partition_s", "s"},
	{"graph.alloc_mb", "MB"},
	{"graph.write_v3_s", "s"},
	{"graph.load_v3_s", "s"},
	{"core.train_s", "s"},
	{"tasks.new_s", "s"},
	{"tasks.run_batch_s", "s"},
	{"tasks.batch_start_s", "s"},
	{"tasks.batch_end_s", "s"},
	{"tasks.alloc_mb_per_job", "MB"},
	{"tasks.mallocs_per_job", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.cpu_s_per_job", "s"},
	{"engine.superstep_s_p50", "s"},
	{"engine.superstep_s_max", "s"},
	{"engine.supersteps", "count"},
	{"engine.msgs_per_s", "1/s"},
	{"engine.logical_msgs", "count"},
	{"engine.physical_msgs", "count"},
	{"engine.combine_ratio", "ratio"},
	{"sim.price_s", "s"},
	{"sim.rounds", "count"},
	{"obs.observer_s", "s"},
	{"obs.report_s", "s"},
	{"obs.report_bytes", "bytes"},
	{"ooc.read_mb", "MB"},
	{"ooc.write_mb", "MB"},
	{"ooc.window_peak_mb", "MB"},
	{"ooc.io_s", "s"},
	{"serve.submit_s_p50", "s"},
	{"serve.queue_wait_s_p50", "s"},
	{"serve.queue_wait_s_tail", "s"},
	{"serve.run_s_p50", "s"},
	{"serve.run_s_tail", "s"},
	{"serve.queue_depth_max", "count"},
	{"serve.refits", "count"},
	{"serve.lat_p50_s.low", "s"},
	{"serve.lat_tail_s.low", "s"},
	{"serve.lat_tail_pct.low", "%"},
	{"serve.lat_samples.low", "count"},
	{"serve.lat_p50_s.high", "s"},
	{"serve.lat_tail_s.high", "s"},
	{"serve.lat_tail_pct.high", "%"},
	{"serve.lat_samples.high", "count"},
	{"self.job_s", "s"},
	{"self.tasks_s", "s"},
	{"self.engine_s", "s"},
	{"self.obs_s", "s"},
	{"self.serve_s", "s"},
	{"gen.late_s_max", "s"},
	{"trace.overhead_frac", "frac"},
	{"trace.accounted_frac", "frac"},
	{"trace.spans", "count"},
	{"failed_frac", "frac"},
	{"host.steal_frac", "frac"},
}

// metricName is the name syntax BENCHMARK.json accepts.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// tally counts operations and failures; every failure message is kept so
// the run can say what went wrong.
type tally struct {
	attempted, failed int
	errs              []string
}

// check records one operation that fails when ok is false.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// fail records one failed operation.
func (t *tally) fail(err error) { t.check(false, "%v", err) }

// result assembles the output from the raw values, keeping exactly the
// metrics of defs: a missing one reads 0, and a non-finite one is an
// error (JSON cannot carry it).
func result(defs []metricDef, vals map[string]float64, t *tally) (Result, error) {
	res := Result{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]Metric, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// writeLine prints v as one JSON line.
func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail returns the highest percentile of tailPercentiles that leaves at
// least minBeyond samples strictly beyond its nearest-rank value, the value
// at that percentile, and the sample count. ok is false when the samples
// are too few for any of them.
func tail(xs []float64) (value, pct float64, n int, ok bool) {
	n = len(xs)
	s := sorted(xs)
	for _, p := range tailPercentiles {
		// 1-based nearest rank; the epsilon keeps p*n/100 exact when it is
		// a whole number that float rounding nudged upwards.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank < 1 || n-rank < minBeyond {
			continue
		}
		return s[rank-1], p, n, true
	}
	return 0, 0, n, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
