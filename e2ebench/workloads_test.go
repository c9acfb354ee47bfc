package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vcmt/internal/obs"
	"vcmt/internal/serve"
	"vcmt/internal/sim"
)

func TestSelfTimes(t *testing.T) {
	sp := newSpans()
	at := func(ms int) time.Time { return sp.epoch.Add(time.Duration(ms) * time.Millisecond) }
	job := sp.add(0, "bench.job", 0, at(0), at(100))
	sp.add(job, "tasks.new", 0, at(0), at(10))
	b := sp.begin(job, "tasks.run_batch", 0, at(10))
	sp.add(b, "engine.superstep", 0, at(20), at(50))
	sp.add(b, "engine.superstep", 0, at(40), at(60)) // overlaps its sibling
	sp.end(b, at(90))
	sp.add(0, "bench.job", 0, at(200), at(300)) // not a root asked for

	self := selfTimes(sp.t.Spans(), map[obs.SpanID]bool{job: true})
	want := map[string]float64{
		"bench.job":        0.010, // 100 - 10 - 80
		"tasks.new":        0.010,
		"tasks.run_batch":  0.040, // 80 - the union [20, 60]
		"engine.superstep": 0.050,
	}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-9 {
			t.Errorf("self time of %s = %g s, want %g s", name, self[name], w)
		}
	}
	layers := layerSelf(self)
	if math.Abs(layers["tasks"]-0.050) > 1e-9 || math.Abs(layers["bench"]-0.010) > 1e-9 {
		t.Errorf("layer self times %v", layers)
	}
}

func toyConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 3, seconds: 0.2, trace: trace, outDir: t.TempDir(), setupReps: 1, minJobs: 2}
}

// TestBatchWorkloadShapes runs a toy-size job of every batch shape, plain
// and traced, with every correctness and determinism check.
func TestBatchWorkloadShapes(t *testing.T) {
	shapes := map[string]batchShape{
		"mssp": {task: "MSSP", dataset: "DBLP", system: sim.PregelPlus, workload: 4, batches: 2},
		"bppr": {task: "BPPR", dataset: "DBLP", system: sim.PregelPlus, workload: 4, batches: 2},
		"bppr-ooc": {
			task: "BPPR", dataset: "DBLP", system: sim.GraphD, machines: 4, workload: 16, batches: 1,
			statScale: 4096, oocBudget: 256 << 10, oocPartitions: 16,
		},
	}
	for name, sh := range shapes {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/plain", true: "/traced"}[trace], func(t *testing.T) {
				c := toyConfig(t, trace)
				vals, tl, sp, err := runBatchWorkload(c, sh)
				if err != nil {
					t.Fatal(err)
				}
				if tl.failed != 0 || tl.attempted == 0 {
					t.Fatalf("%d of %d checks failed: %v", tl.failed, tl.attempted, tl.errs)
				}
				for _, d := range endToEnd {
					if !(vals[d.name] > 0) {
						t.Errorf("%s = %g, want > 0", d.name, vals[d.name])
					}
				}
				if !trace {
					return
				}
				if n, err := writeTrace(sp, filepath.Join(c.outDir, "trace.json")); err != nil || n == 0 {
					t.Fatalf("trace: %d spans, %v", n, err)
				}
				if vals["engine.supersteps"] != vals["sim.rounds"] || vals["engine.supersteps"] == 0 {
					t.Errorf("engine.supersteps %g, sim.rounds %g", vals["engine.supersteps"], vals["sim.rounds"])
				}
				if (sh.oocBudget > 0) != (vals["ooc.write_mb"] > 0) {
					t.Errorf("ooc.write_mb = %g on a shape with budget %d", vals["ooc.write_mb"], sh.oocBudget)
				}
				// Self times partition each job span exactly (batch jobs
				// have no overlapping children).
				all := sp.t.Spans()
				roots := map[obs.SpanID]bool{}
				jobTime := 0.0
				for _, s := range all {
					if s.Name == "bench.job" {
						roots[s.ID] = true
						jobTime += float64(s.DurUS) / 1e6
					}
				}
				selfSum := 0.0
				for _, v := range selfTimes(all, roots) {
					selfSum += v
				}
				if math.Abs(selfSum-jobTime) > 1e-6 {
					t.Errorf("self times sum to %g s, job spans to %g s", selfSum, jobTime)
				}
			})
		}
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	sh := batchShape{task: "MSSP", dataset: "DBLP", system: sim.PregelPlus, workload: 8, batches: 2}
	env, _, err := setUpBatch(sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.seedInputs(1)
	first := append(env.sources[:0:0], env.sources...)
	env.seedInputs(1)
	if !equalSources(first, env.sources) {
		t.Fatal("the same seed chose other sources")
	}
	env.seedInputs(2)
	if equalSources(first, env.sources) {
		t.Fatal("another seed chose the same sources")
	}

	bp := batchShape{task: "BPPR", dataset: "DBLP", system: sim.PregelPlus, workload: 2, batches: 1}
	benv, _, err := setUpBatch(bp, nil)
	if err != nil {
		t.Fatal(err)
	}
	report := func(seed uint64) []byte {
		benv.seedInputs(seed)
		o, err := benv.runJob(nil, false, false)
		if err != nil {
			t.Fatal(err)
		}
		return o.report
	}
	if a, b := report(1), report(1); !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two BPPR reports")
	} else if bytes.Equal(a, report(2)) {
		t.Fatal("another seed gave the same BPPR report")
	}
}

func equalSources[T comparable](a, b []T) bool {
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

// TestServeWorkloadShape runs a toy serve mix through the whole
// open-loop path, plain and traced.
func TestServeWorkloadShape(t *testing.T) {
	sh := serveShape{
		datasets: []string{"DBLP"},
		mix: []serve.JobSpec{
			{Tenant: "a", Task: "BKHS", Dataset: "DBLP", Workload: 2, Batches: 2},
			{Tenant: "b", Task: "MSSP", Dataset: "DBLP", Workload: 2},
		},
		ladder: []float64{8, 16}, high: 1, lowShare: 0.5,
		limit: time.Second, maxBacklog: 16, maxRunning: 2, queueCap: 64,
	}
	for _, trace := range []bool{false, true} {
		c := toyConfig(t, trace)
		c.seconds = 2
		vals, tl, sp, err := runServeWorkload(c, sh)
		if err != nil {
			t.Fatal(err)
		}
		if tl.failed != 0 || tl.attempted < 8 {
			t.Fatalf("trace=%v: %d of %d checks failed: %v", trace, tl.failed, tl.attempted, tl.errs)
		}
		for _, d := range endToEnd {
			if !(vals[d.name] > 0) {
				t.Errorf("trace=%v: %s = %g, want > 0", trace, d.name, vals[d.name])
			}
		}
		if !trace {
			continue
		}
		if vals["serve.run_s_p50"] <= 0 || vals["serve.submit_s_p50"] <= 0 || vals["core.train_s"] <= 0 {
			t.Errorf("serve layer metrics missing: %v", vals)
		}
		path := filepath.Join(c.outDir, "trace.json")
		if n, err := writeTrace(sp, path); err != nil || n == 0 {
			t.Fatalf("trace: %d spans, %v", n, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatal(err)
		}
	}
}
