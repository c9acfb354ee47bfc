package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
		ok  bool
	}{
		{0, 0, false}, {19, 0, false}, {39, 0, false},
		{40, 75, true}, {99, 75, true}, {100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // the values 1..n, unsorted
		}
		v, pct, n, ok := tail(xs)
		if ok != c.ok || pct != c.pct || n != c.n {
			t.Errorf("n=%d: got pct %g ok %v count %d, want pct %g ok %v count %d", c.n, pct, ok, n, c.pct, c.ok, c.n)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g leaves %d samples beyond it, want >= %d", c.n, pct, v, beyond, minBeyond)
		}
		if rank := math.Ceil(pct * float64(c.n) / 100); v != rank {
			t.Errorf("n=%d: p%g = %g, want the nearest-rank value %g", c.n, pct, v, rank)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit", d.name)
		}
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestResultKeepsExactlyTheDefinedMetrics(t *testing.T) {
	tl := &tally{}
	tl.check(true, "ok")
	res, err := result(endToEnd, map[string]float64{"setup_s": 1.5, "not_listed": 2}, tl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEnd) || res.Metrics["setup_s"].Value != 1.5 || !res.Correct {
		t.Fatalf("result = %+v", res)
	}
	if _, ok := res.Metrics["not_listed"]; ok {
		t.Fatal("result carries a metric outside its table")
	}
	tl.check(false, "broken")
	if _, err := result(endToEnd, map[string]float64{"setup_s": math.NaN()}, tl); err == nil {
		t.Fatal("NaN metric accepted")
	}
	res, _ = result(endToEnd, nil, tl)
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("failed check not reflected: %+v", res)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, the metric tables
// and the workload list in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Command) == 0 || len(doc.Paths) == 0 || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Fatalf("command/paths/run_seconds missing or out of range: %+v", doc)
	}

	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	want := []string{"serve-mix"}
	for name := range batchShapes {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !equalStrings(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %g / better %q out of contract", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better %q", m.Name, m.Better)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
