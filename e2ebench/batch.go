package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"vcmt/internal/batch"
	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/ooc"
	"vcmt/internal/ref"
	"vcmt/internal/sim"
	"vcmt/internal/tasks"
)

// batchShape is one whole vcrun-style job: a task on a dataset replica,
// split into equal batches, priced for one system profile.
type batchShape struct {
	task      string // "MSSP" or "BPPR"
	dataset   string
	system    sim.SystemProfile
	machines  int     // 0 keeps the Galaxy-8 machine count
	workload  int     // sources (MSSP) or walks per vertex (BPPR)
	batches   int     // equal batches
	k         int     // BKHS hop radius
	statScale float64 // 0 uses the dataset's node scale, as vcrun does
	// oocBudget > 0 runs the job out-of-core with this resident-window
	// budget (bytes) over oocPartitions partitions.
	oocBudget     int64
	oocPartitions int
}

var batchShapes = map[string]batchShape{
	"mssp-lj": {task: "MSSP", dataset: "LiveJournal", system: sim.PregelPlus, workload: 64, batches: 4},
	"bppr-lj": {task: "BPPR", dataset: "LiveJournal", system: sim.PregelPlus, workload: 128, batches: 4},
	// The Table 2 overflow cell, as scripts/ooc_smoke.sh runs it.
	"bppr-ooc": {
		task: "BPPR", dataset: "DBLP", system: sim.GraphD, machines: 4, workload: 192, batches: 1,
		statScale: 4096, oocBudget: 4 << 20, oocPartitions: 32,
	},
}

// batchEnv is a set-up replica plus everything a job of the shape needs.
type batchEnv struct {
	shape   batchShape
	spec    graph.DatasetSpec
	g       *graph.Graph
	part    *graph.Partition
	cluster sim.ClusterProfile
	scale   float64
	sources []graph.VertexID // MSSP only
	seed    uint64
	oocDir  string // parent of the per-job partition directories
}

// setupTimes is one set-up repetition, measured from outside.
type setupTimes struct {
	total, generate, partition time.Duration
	allocBytes                 uint64
}

// setUpBatch generates the replica and partitions it, as default vcrun
// does (graph.Dataset(...).Load() is GenerateChungLu with the spec's
// arguments; calling it directly keeps the dataset cache out of the way).
func setUpBatch(sh batchShape, sp *spans) (*batchEnv, setupTimes, error) {
	spec, err := graph.Dataset(sh.dataset)
	if err != nil {
		return nil, setupTimes{}, err
	}
	cluster := sim.Galaxy8
	if sh.machines > 0 {
		cluster = cluster.WithMachines(sh.machines)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	g := graph.GenerateChungLu(spec.Nodes, spec.Edges/2, spec.Gamma, spec.Seed)
	t1 := time.Now()
	part := graph.HashPartition(g.NumVertices(), cluster.Machines)
	t2 := time.Now()
	runtime.ReadMemStats(&m1)

	root := sp.add(0, "bench.setup", 0, t0, t2)
	sp.add(root, "graph.generate", 0, t0, t1)
	sp.add(root, "graph.partition", 0, t1, t2)

	scale := sh.statScale
	if scale == 0 {
		scale = spec.ScaleNodes()
	}
	env := &batchEnv{shape: sh, spec: spec, g: g, part: part, cluster: cluster, scale: scale}
	return env, setupTimes{
		total: t2.Sub(t0), generate: t1.Sub(t0), partition: t2.Sub(t1),
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
	}, nil
}

// seedInputs derives the job inputs from the workload seed: the task RNG
// seed and, for MSSP, the sources. Sources are drawn from the component of
// the highest-degree vertex (the giant component), so every seed's sources
// do comparable work and the seed does not change the job's size.
func (e *batchEnv) seedInputs(seed uint64) {
	e.seed = seed
	if e.shape.task != "MSSP" {
		return
	}
	hub := graph.VertexID(0)
	for v := 0; v < e.g.NumVertices(); v++ {
		if e.g.Degree(graph.VertexID(v)) > e.g.Degree(hub) {
			hub = graph.VertexID(v)
		}
	}
	var giant []graph.VertexID
	for v, d := range ref.BFS(e.g, hub) {
		if d >= 0 {
			giant = append(giant, graph.VertexID(v))
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	rng.Shuffle(len(giant), func(i, j int) { giant[i], giant[j] = giant[j], giant[i] })
	e.sources = append([]graph.VertexID(nil), giant[:min(e.shape.workload, len(giant))]...)
}

// jobOut is one finished job.
type jobOut struct {
	job    tasks.Job
	report []byte
	res    sim.JobResult
	dur    time.Duration // tasks.New* -> report written
	rssMB  float64       // peak RSS during the job; 0 if it cannot be reset
	cpu    time.Duration // process CPU time (user+sys, GC included) during the job

	// Traced jobs only.
	newDur, runBatch, reportDur time.Duration
	timer                       *roundTimer
	mem                         memDelta
	ioStats                     ooc.IOStats
	cfg                         sim.JobConfig
	span                        obs.SpanID
}

// memDelta sums runtime counters over a job's RunBatch calls.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
}

func (d *memDelta) add(a, b *runtime.MemStats) {
	d.allocBytes += b.TotalAlloc - a.TotalAlloc
	d.mallocs += b.Mallocs - a.Mallocs
	d.gcCycles += b.NumGC - a.NumGC
	d.gcPause += time.Duration(b.PauseTotalNs - a.PauseTotalNs)
}

// newJob constructs the task job as vcrun does.
func (e *batchEnv) newJob(oocCfg *tasks.OOCConfig) (tasks.Job, error) {
	sh := e.shape
	switch sh.task {
	case "MSSP":
		return tasks.NewMSSP(e.g, e.part, tasks.MSSPConfig{
			Sources: e.sources, Mirror: sh.system.Mirror, Seed: e.seed, Workers: 1, OOC: oocCfg,
		})
	case "BPPR":
		return tasks.NewBPPR(e.g, e.part, tasks.BPPRConfig{
			WalksPerNode: sh.workload, Mirror: sh.system.Mirror, Seed: e.seed, Workers: 1, OOC: oocCfg,
		}), nil
	case "BKHS":
		return tasks.NewBKHS(e.g, e.part, tasks.BKHSConfig{
			Sources: e.sources, K: sh.k, Mirror: sh.system.Mirror, Seed: e.seed, Workers: 1, OOC: oocCfg,
		}), nil
	}
	return nil, fmt.Errorf("unknown task %q", sh.task)
}

// runJob runs one whole job the way cmd/vcrun does: New* -> sim.NewRun ->
// RunBatch per batch.Equal batch -> Collector.Report + WriteJSON. With
// oocOn false an out-of-core shape runs in memory (the report oracle).
// With sp non-nil every layer call is wrapped in a span and the job's
// superstep callbacks are timestamped; with record (or sp) its superstep
// statistics are kept for replay.
func (e *batchEnv) runJob(sp *spans, oocOn, record bool) (*jobOut, error) {
	out := &jobOut{}
	var oocCfg *tasks.OOCConfig
	if oocOn {
		dir, err := os.MkdirTemp(e.oocDir, "job-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		oocCfg = &tasks.OOCConfig{
			Dir: dir, MemoryBudgetBytes: e.shape.oocBudget, Partitions: e.shape.oocPartitions, Stats: &out.ioStats,
		}
	}

	t0 := time.Now()
	job, err := e.newJob(oocCfg)
	if err != nil {
		return nil, err
	}
	tNew := time.Now()
	out.job, out.newDur = job, tNew.Sub(t0)

	cfg := sim.JobConfig{
		Cluster:              e.cluster,
		System:               e.shape.system,
		Task:                 job.MemModel(),
		StatScale:            e.scale,
		NodeScale:            e.spec.ScaleNodes(),
		GraphBytesPerMachine: (float64(e.spec.PaperNodes)*16 + float64(e.spec.PaperEdges)*8) / float64(e.cluster.Machines),
	}
	collector := obs.NewCollector(obs.CollectorOptions{Registry: obs.NewRegistry()})
	cfg.Observer = collector
	var timer *roundTimer
	if sp != nil || record {
		out.span = sp.begin(0, "bench.job", 0, t0)
		sp.add(out.span, "tasks.new", 0, t0, tNew)
		timer = &roundTimer{inner: collector, sp: sp}
		cfg.Observer = timer
		out.timer = timer
	}
	out.cfg = cfg
	traced := sp != nil

	run := sim.NewRun(cfg)
	for i, bw := range batch.Equal(job.TotalWorkload(), e.shape.batches) {
		if run.Overloaded() || bw <= 0 {
			continue
		}
		run.BeginBatch()
		var m0, m1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&m0)
		}
		b0 := time.Now()
		if timer != nil {
			timer.enterBatch(sp.begin(out.span, "tasks.run_batch", 0, b0, obs.L("batch", fmt.Sprint(i))), b0)
		}
		residual, err := job.RunBatch(run, bw, i)
		b1 := time.Now()
		if err != nil {
			return nil, err
		}
		out.runBatch += b1.Sub(b0)
		if timer != nil {
			timer.leaveBatch(b1, residual)
			sp.end(timer.batchSpan, b1)
		}
		if traced {
			runtime.ReadMemStats(&m1)
			out.mem.add(&m0, &m1)
		}
		run.AddResidual(residual)
	}
	out.res = run.Result()

	r0 := time.Now()
	rep, err := e.writeReport(collector, job, out.res)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	out.report, out.reportDur, out.dur = rep, t1.Sub(r0), t1.Sub(t0)
	if sp != nil {
		sp.add(out.span, "obs.report", 0, r0, t1)
		sp.end(out.span, t1)
	}
	return out, nil
}

// writeReport assembles and serializes the run report with vcrun's meta.
func (e *batchEnv) writeReport(c *obs.Collector, job tasks.Job, res sim.JobResult) ([]byte, error) {
	rep := c.Report(obs.RunMeta{
		Task:      job.Name(),
		Dataset:   e.spec.Name,
		System:    e.shape.system.Name,
		Cluster:   e.cluster.Name,
		Machines:  e.cluster.Machines,
		Workload:  job.TotalWorkload(),
		Batches:   e.shape.batches,
		Seed:      e.seed,
		StatScale: e.scale,
	}, res)
	var buf bytes.Buffer
	err := rep.WriteJSON(&buf)
	return buf.Bytes(), err
}

// replayReport re-prices a recorded job into a fresh collector's report.
func (e *batchEnv) replayReport(o *jobOut, dropOOC bool) ([]byte, error) {
	cfg := o.cfg
	c := obs.NewCollector(obs.CollectorOptions{Registry: obs.NewRegistry()})
	cfg.Observer = c
	return e.writeReport(c, o.job, replay(cfg, o.timer.batches, dropOOC).Result())
}

// runJobs runs jobs back to back (a closed loop with one client) until
// the next one would end past the deadline; at least minJobs run.
func (e *batchEnv) runJobs(seconds float64, minJobs int, sp *spans, t *tally) []*jobOut {
	var outs []*jobOut
	start := time.Now()
	for {
		if n := len(outs); n >= minJobs {
			last := outs[n-1].dur.Seconds()
			if time.Since(start).Seconds()+last > seconds {
				break
			}
		}
		ooc := e.shape.oocBudget > 0
		// Start every job from a collected heap with free memory returned
		// to the OS, as a one-shot vcrun process starts, so that neither
		// its time nor its peak RSS depends on the previous job's garbage.
		debug.FreeOSMemory()
		reset := resetPeakRSS()
		cpu0 := processCPU()
		o, err := e.runJob(sp, ooc, ooc)
		if err == nil {
			o.cpu = processCPU() - cpu0
			if reset {
				o.rssMB = peakRSSMB()
			}
		}
		if err != nil {
			t.fail(fmt.Errorf("job %d: %w", len(outs), err))
			if time.Since(start).Seconds() > seconds {
				break
			}
			continue
		}
		outs = append(outs, o)
	}
	return outs
}

// checkDeterminism fails every job whose report differs from want.
func checkDeterminism(outs []*jobOut, want []byte, what string, t *tally) {
	for i, o := range outs {
		t.check(bytes.Equal(o.report, want), "%s job %d: report differs from the first job's", what, i)
	}
}

// checkJob verifies the job's output against the reference oracles.
func (e *batchEnv) checkJob(o *jobOut, seed uint64, t *tally) {
	rng := rand.New(rand.NewPCG(seed, 0xc43c))
	switch job := o.job.(type) {
	case *tasks.MSSPJob:
		for range 4 {
			i := rng.IntN(len(e.sources))
			want := ref.BFS(e.g, e.sources[i])
			bad := 0
			for v, d := range want {
				got := job.Distance(i, graph.VertexID(v))
				if (d < 0 && !math.IsInf(got, 1)) || (d >= 0 && got != float64(d)) {
					bad++
				}
			}
			t.check(bad == 0, "MSSP source %d: %d distances differ from BFS", e.sources[i], bad)
		}
	case *tasks.BPPRJob:
		launched := float64(job.WalksLaunched())
		for range 8 {
			src := graph.VertexID(rng.IntN(e.g.NumVertices()))
			got := job.EndpointMass(src)
			t.check(got == launched, "BPPR source %d: endpoint mass %g, want %g walks", src, got, launched)
		}
	}
	budget := e.shape.oocBudget
	if budget == 0 {
		return
	}
	res := o.res
	t.check(res.OOCWindowPeakBytes > 0 && res.OOCWindowPeakBytes <= budget,
		"ooc window peak %d bytes outside (0, %d]", res.OOCWindowPeakBytes, budget)
	t.check(res.OOCWriteBytes >= 4*budget,
		"ooc wrote %d bytes, want >= 4x the %d-byte budget", res.OOCWriteBytes, budget)
	// On an out-of-core system profile the cost model prices the measured
	// partition IO, so the ooc counters change simulated time too. The
	// oracle therefore re-prices the job's own superstep statistics with
	// the three counters zeroed, and that report must equal the one an
	// in-memory run of the same job writes.
	inMem, err := e.runJob(nil, false, false)
	if err != nil {
		t.fail(fmt.Errorf("in-memory oracle job: %w", err))
		return
	}
	same, errS := e.replayReport(o, false)
	t.check(errS == nil && bytes.Equal(same, o.report), "replayed ooc report differs from the job's own report (%v)", errS)
	dropped, errD := e.replayReport(o, true)
	t.check(errD == nil && bytes.Equal(dropped, inMem.report),
		"ooc report differs from the in-memory report beyond the ooc counters (%v)", errD)
}

// runBatchWorkload is one invocation on a batch workload.
func runBatchWorkload(c runConfig, sh batchShape) (map[string]float64, *tally, *spans, error) {
	t := &tally{}
	vals := map[string]float64{}
	var sp *spans
	if c.trace {
		sp = newSpans()
	}

	var env *batchEnv
	var setups []setupTimes
	for range c.setupReps {
		runtime.GC()
		e, st, err := setUpBatch(sh, sp)
		if err != nil {
			return nil, t, sp, err
		}
		env, setups = e, append(setups, st)
	}
	env.seedInputs(c.seed)
	oocDir, err := os.MkdirTemp(c.outDir, "ooc-")
	if err != nil {
		return nil, t, sp, err
	}
	defer os.RemoveAll(oocDir)
	env.oocDir = oocDir
	vals["setup_s"] = median(durs(setups, func(s setupTimes) time.Duration { return s.total }))
	vals["graph.generate_s"] = median(durs(setups, func(s setupTimes) time.Duration { return s.generate }))
	vals["graph.partition_s"] = median(durs(setups, func(s setupTimes) time.Duration { return s.partition }))
	allocs := make([]float64, len(setups))
	for i, s := range setups {
		allocs[i] = float64(s.allocBytes) / (1 << 20)
	}
	vals["graph.alloc_mb"] = median(allocs)

	// A traced invocation splits its time: a plain half that the traced
	// half is compared with (the tracing overhead), then the traced half.
	plainSec := c.seconds
	if c.trace {
		plainSec = c.seconds / 2
	}
	plain := env.runJobs(plainSec, c.minJobs, nil, t)
	vals["peak_rss_mb"] = peakRSSMB()
	if rss := jobRSS(plain); len(rss) > 0 {
		vals["peak_rss_mb"] = median(rss)
	}
	var traced []*jobOut
	if c.trace {
		traced = env.runJobs(c.seconds-plainSec, c.minJobs, sp, t)
	}
	if len(plain) == 0 {
		return vals, t, sp, fmt.Errorf("no job completed")
	}

	// Timing has stopped; everything below is checking and bookkeeping.
	first := plain[0].report
	checkDeterminism(plain, first, "plain", t)
	checkDeterminism(traced, first, "traced", t)
	env.checkJob(plain[len(plain)-1], c.seed, t)

	jobSec := make([]float64, len(plain))
	for i, o := range plain {
		jobSec[i] = o.dur.Seconds()
		// The result file keeps every job's wall and CPU time.
		vals[fmt.Sprintf("job.%02d_s", i)] = jobSec[i]
		vals[fmt.Sprintf("job.%02d_cpu_s", i)] = o.cpu.Seconds()
	}
	vals["job_s_p50"] = median(jobSec)
	vals["max_rate_jobs_s"] = float64(len(jobSec)) / sum(jobSec)
	if c.trace {
		tracedMetrics(vals, traced, sp)
	}
	return vals, t, sp, nil
}

// jobRSS lists the per-job peak RSS of the jobs that measured one.
func jobRSS(outs []*jobOut) []float64 {
	var rss []float64
	for _, o := range outs {
		if o.rssMB > 0 {
			rss = append(rss, o.rssMB)
		}
	}
	return rss
}

// tracedMetrics fills the per-layer metrics of the batch workloads from
// the traced jobs: per-job values are medians over the jobs.
func tracedMetrics(vals map[string]float64, traced []*jobOut, sp *spans) {
	if len(traced) == 0 {
		return
	}
	perJob := func(f func(o *jobOut) float64) float64 {
		xs := make([]float64, len(traced))
		for i, o := range traced {
			xs[i] = f(o)
		}
		return median(xs)
	}
	var gaps []float64
	for _, o := range traced {
		gaps = append(gaps, o.timer.gaps...)
	}
	vals["tasks.new_s"] = perJob(func(o *jobOut) float64 { return o.newDur.Seconds() })
	vals["tasks.run_batch_s"] = perJob(func(o *jobOut) float64 { return o.runBatch.Seconds() })
	vals["tasks.alloc_mb_per_job"] = perJob(func(o *jobOut) float64 { return float64(o.mem.allocBytes) / (1 << 20) })
	vals["tasks.mallocs_per_job"] = perJob(func(o *jobOut) float64 { return float64(o.mem.mallocs) })
	vals["runtime.gc_cycles"] = perJob(func(o *jobOut) float64 { return float64(o.mem.gcCycles) })
	vals["runtime.gc_pause_s"] = perJob(func(o *jobOut) float64 { return o.mem.gcPause.Seconds() })
	vals["runtime.cpu_s_per_job"] = perJob(func(o *jobOut) float64 { return o.cpu.Seconds() })
	vals["engine.superstep_s_p50"] = median(gaps)
	vals["engine.superstep_s_max"] = maxOf(gaps)
	vals["engine.supersteps"] = perJob(func(o *jobOut) float64 { return float64(o.res.Rounds) })
	vals["engine.logical_msgs"] = perJob(func(o *jobOut) float64 { return float64(o.timer.logical) })
	vals["engine.physical_msgs"] = perJob(func(o *jobOut) float64 { return float64(o.timer.physical) })
	vals["engine.combine_ratio"] = perJob(func(o *jobOut) float64 {
		return float64(o.timer.physical) / math.Max(float64(o.timer.logical), 1)
	})
	vals["engine.msgs_per_s"] = perJob(func(o *jobOut) float64 {
		return float64(o.timer.logical) / (o.runBatch - o.timer.observer).Seconds()
	})
	vals["obs.observer_s"] = perJob(func(o *jobOut) float64 { return o.timer.observer.Seconds() })
	vals["obs.report_s"] = perJob(func(o *jobOut) float64 { return o.reportDur.Seconds() })
	vals["obs.report_bytes"] = float64(len(traced[0].report))
	vals["ooc.read_mb"] = perJob(func(o *jobOut) float64 { return float64(o.res.OOCReadBytes) / (1 << 20) })
	vals["ooc.write_mb"] = perJob(func(o *jobOut) float64 { return float64(o.res.OOCWriteBytes) / (1 << 20) })
	vals["ooc.window_peak_mb"] = perJob(func(o *jobOut) float64 { return float64(o.res.OOCWindowPeakBytes) / (1 << 20) })
	vals["ooc.io_s"] = perJob(func(o *jobOut) float64 { return o.ioStats.ReadSeconds + o.ioStats.WriteSeconds })

	// Pricing replay runs after the traced jobs, outside every span.
	var price []float64
	for _, o := range traced {
		cfg := o.cfg
		cfg.Observer = nil
		t0 := time.Now()
		run := replay(cfg, o.timer.batches, false)
		price = append(price, time.Since(t0).Seconds())
		vals["sim.rounds"] = float64(run.Result().Rounds)
	}
	vals["sim.price_s"] = median(price)

	vals["tasks.batch_start_s"] = perJob(func(o *jobOut) float64 { return o.timer.batchStart.Seconds() })
	vals["tasks.batch_end_s"] = perJob(func(o *jobOut) float64 { return o.timer.batchEnd.Seconds() })
	roots := map[obs.SpanID]bool{}
	for _, o := range traced {
		roots[o.span] = true
	}
	all := sp.t.Spans()
	selfPerJob(vals, all, roots, len(traced))
	tracedJob := perJob(func(o *jobOut) float64 { return o.dur.Seconds() })
	vals["trace.overhead_frac"] = tracedJob/vals["job_s_p50"] - 1
}

// selfPerJob reports the mean self time per job of each job-scope layer
// and how much of the plain job time those self times account for.
func selfPerJob(vals map[string]float64, all []obs.Span, roots map[obs.SpanID]bool, jobs int) {
	layers := layerSelf(selfTimes(all, roots))
	total := 0.0
	for layer, v := range layers {
		vals["self."+layer+"_s"] = v / float64(jobs)
		total += v / float64(jobs)
	}
	vals["self.job_s"] = layers["bench"] / float64(jobs)
	delete(vals, "self.bench_s")
	vals["trace.accounted_frac"] = total / vals["job_s_p50"]
}

func durs[T any](xs []T, f func(T) time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x).Seconds()
	}
	return out
}
