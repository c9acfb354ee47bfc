package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"vcmt/internal/graph"
	"vcmt/internal/obs"
	"vcmt/internal/serve"
	"vcmt/internal/sim"
)

// serveShape is an open-loop job mix against an in-process serve.Server.
type serveShape struct {
	datasets []string
	// mix is the fixed tenant x task mix; every phase submits each spec
	// the same number of times, in a seeded order.
	mix []serve.JobSpec
	// ladder is the fixed rate ladder in jobs/s, ascending, with at least
	// two rates; the phase at ladder[0] is "low" and the one at
	// ladder[high] is "high".
	ladder []float64
	high   int
	// lowShare is the share of the measured seconds the low rate gets;
	// the other rates split the rest evenly.
	lowShare float64
	// limit is the latency limit on the tail percentile that a ladder
	// rate must meet, and maxBacklog the jobs still queued at a phase's
	// last arrival above which the backlog counts as growing.
	limit      time.Duration
	maxBacklog int
	maxRunning int
	// queueCap is the server's admission queue bound, sized so that no
	// ladder phase can fill it: a rejected job would count as a failure.
	queueCap int
}

// serveMix is the serve-mix workload. The mix has an odd number of specs
// so the median of a phase's fixed multiset falls inside one spec's
// copies rather than on the boundary between two job sizes. The ladder
// brackets the mix's capacity on a 2-CPU host, which ranged from about 30
// to about 60 jobs/s with the load of other tenants: its low rate leaves
// the server mostly idle, its top rate exceeds capacity, and high (24
// jobs/s) is busy but below capacity. Few, long steps keep each step's
// tail from resting on a handful of samples. queueCap exceeds the largest
// phase.
var serveMix = serveShape{
	datasets: []string{"DBLP", "LiveJournal"},
	mix: []serve.JobSpec{
		{Tenant: "alice", Task: "BKHS", Dataset: "DBLP", Workload: 16, Batches: 2},
		{Tenant: "alice", Task: "MSSP", Dataset: "DBLP", Workload: 8, Batches: 2},
		{Tenant: "bob", Task: "BPPR", Dataset: "DBLP", Workload: 8, Batches: 2},
		{Tenant: "bob", Task: "BKHS", Dataset: "LiveJournal", Workload: 8, Batches: 2},
		{Tenant: "carol", Task: "MSSP", Dataset: "LiveJournal", Workload: 4, Batches: 2},
	},
	ladder:     []float64{12, 24, 40, 56},
	high:       1,
	lowShare:   0.35,
	limit:      300 * time.Millisecond,
	maxBacklog: 32,
	maxRunning: 2,
	queueCap:   512,
}

// eventClock is the server's Config.Events writer: it timestamps every
// lifecycle event as its line arrives, which is when the server emitted it.
type eventClock struct {
	mu       sync.Mutex
	at       map[string]map[string]time.Time // job -> event type -> time
	queued   map[string]bool
	depth    int
	depthMax int
	refits   int
}

func newEventClock() *eventClock {
	return &eventClock{at: map[string]map[string]time.Time{}, queued: map[string]bool{}}
}

func (c *eventClock) Write(p []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, line := range bytes.Split(bytes.TrimSpace(p), []byte("\n")) {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			return 0, fmt.Errorf("event line %q: %w", line, err)
		}
		switch {
		case e.Type == obs.EventModelRefit && e.Job != "":
			c.refits++
		case e.Type == obs.EventJobQueued:
			c.queued[e.Job] = true
			c.depth++
			c.depthMax = max(c.depthMax, c.depth)
		case e.Type == obs.EventJobAdmitted && c.queued[e.Job]:
			c.depth--
		}
		if e.Job == "" {
			continue
		}
		if c.at[e.Job] == nil {
			c.at[e.Job] = map[string]time.Time{}
		}
		c.at[e.Job][e.Type] = now
	}
	return len(p), nil
}

func (c *eventClock) times(job string) map[string]time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at[job]
}

func (c *eventClock) backlog() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.depth
}

// serveEnv is a set-up server plus the replicas its snapshots were
// dumped from.
type serveEnv struct {
	shape   serveShape
	graphs  map[string]*graph.Graph
	srv     *serve.Server
	handler http.Handler
	wait    func() // blocks until the server has no job in flight
	clock   *eventClock
	seed    uint64
}

// submit POSTs one spec through the server's HTTP handler (no socket).
func (e *serveEnv) submit(sp serve.JobSpec) (serve.JobView, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return serve.JobView{}, err
	}
	rec := httptest.NewRecorder()
	e.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var v serve.JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		return v, fmt.Errorf("submit: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if rec.Code != http.StatusAccepted {
		return v, fmt.Errorf("submit: status %d, state %s: %s", rec.Code, v.State, v.Reason)
	}
	return v, nil
}

// report GETs a completed job's report bytes through the handler.
func (e *serveEnv) report(id string) ([]byte, error) {
	rec := httptest.NewRecorder()
	e.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/report", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("report %s: status %d: %s", id, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

// setUpServe is one set-up repetition: write v3 dumps of the replicas,
// load them with Store.AddFile, and train every admission model the mix
// needs by submitting one warm-up job per model key.
func setUpServe(sh serveShape, graphs map[string]*graph.Graph, dir string, seed uint64, sp *spans) (*serveEnv, map[string]time.Duration, error) {
	times := map[string]time.Duration{}
	t0 := time.Now()
	root := sp.begin(0, "bench.setup", 0, t0)
	store := serve.NewStore()
	for _, name := range sh.datasets {
		path := filepath.Join(dir, name+".bin")
		w0 := time.Now()
		if err := writeDump(path, graphs[name]); err != nil {
			return nil, nil, err
		}
		w1 := time.Now()
		if err := store.AddFile(name, path); err != nil {
			return nil, nil, err
		}
		w2 := time.Now()
		sp.add(root, "graph.write_v3", 0, w0, w1)
		sp.add(root, "graph.load_v3", 0, w1, w2)
		times["write"] += w1.Sub(w0)
		times["load"] += w2.Sub(w1)
	}
	e := &serveEnv{shape: sh, graphs: graphs, clock: newEventClock(), seed: seed}
	e.srv = serve.NewServer(serve.Config{
		Cluster: sim.Galaxy8, System: sim.PregelPlus, MaxRunning: sh.maxRunning,
		QueueCap: sh.queueCap, Events: e.clock, Store: store,
	})
	e.handler, e.wait = e.srv.Handler(), e.srv.Wait
	trained := map[string]bool{}
	for _, spec := range e.specs() {
		key := spec.Task + "|" + spec.Dataset
		if trained[key] {
			continue
		}
		trained[key] = true
		s0 := time.Now()
		if _, err := e.submit(spec); err != nil {
			return nil, nil, fmt.Errorf("warm-up %s: %w", key, err)
		}
		s1 := time.Now()
		sp.add(root, "core.train", 0, s0, s1, obs.L("key", key))
		times["train"] += s1.Sub(s0)
	}
	w0 := time.Now()
	e.wait()
	t1 := time.Now()
	sp.add(root, "serve.warmup", 0, w0, t1)
	sp.end(root, t1)
	times["total"] = t1.Sub(t0)
	return e, times, nil
}

func writeDump(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := graph.WriteBinary(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// specs returns the mix with the run's seed and one engine worker per job.
func (e *serveEnv) specs() []serve.JobSpec {
	out := append([]serve.JobSpec(nil), e.shape.mix...)
	for i := range out {
		out[i].Seed, out[i].Workers = e.seed, 1
	}
	return out
}

// arrival is one scheduled submission, due at offset from the phase start.
type arrival struct {
	offset time.Duration
	spec   serve.JobSpec
}

// schedule is the seeded open-loop Poisson schedule of one phase: copies
// of every mix spec in a seeded order, with exponential inter-arrival gaps
// at the given rate. The gaps are the exponential distribution's quantiles
// at (i+0.5)/n, in a seeded order: stratified rather than drawn, so every
// schedule of a phase offers exactly the same load and only the order of
// gaps and jobs changes with the seed. The same (seed, phase) always gives
// the same schedule.
func schedule(seed uint64, phase int, rate float64, copies int, mix []serve.JobSpec) []arrival {
	rng := rand.New(rand.NewPCG(seed, uint64(phase)+1))
	var specs []serve.JobSpec
	for range copies {
		specs = append(specs, mix...)
	}
	n := len(specs)
	rng.Shuffle(n, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = -math.Log(1-(float64(i)+0.5)/float64(n)) / rate
	}
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	out := make([]arrival, n)
	at := 0.0
	for i, sp := range specs {
		at += gaps[i]
		out[i] = arrival{offset: time.Duration(at * float64(time.Second)), spec: sp}
	}
	return out
}

// served is one submitted job, timed from its due time.
type served struct {
	spec            serve.JobSpec
	id              string
	due, sent, back time.Time // scheduled, handler entered, handler returned
	err             error
}

// phaseOut is one phase of the ladder.
type phaseOut struct {
	rate    float64
	jobs    []served
	lat     []float64 // due -> job_completed, seconds; +Inf for failures
	backlog int       // jobs still queued at the last arrival
}

// runPhase submits the schedule open-loop, each job at its due time no
// matter how many are still in flight, then waits for the server to drain.
func (e *serveEnv) runPhase(rate float64, arr []arrival) phaseOut {
	out := phaseOut{rate: rate, jobs: make([]served, len(arr))}
	start := time.Now()
	for i, a := range arr {
		due := start.Add(a.offset)
		time.Sleep(time.Until(due))
		j := served{spec: a.spec, due: due, sent: time.Now()}
		v, err := e.submit(a.spec)
		j.back, j.id, j.err = time.Now(), v.ID, err
		out.jobs[i] = j
	}
	out.backlog = e.clock.backlog()
	e.wait()
	for i := range out.jobs {
		j := &out.jobs[i]
		if j.err == nil {
			if done, ok := e.clock.times(j.id)[obs.EventJobCompleted]; ok {
				out.lat = append(out.lat, done.Sub(j.due).Seconds())
				continue
			}
			j.err = fmt.Errorf("job %s did not complete", j.id)
		}
		out.lat = append(out.lat, math.Inf(1))
	}
	return out
}

// runLadder runs the ladder in the given seconds. The low rate runs in
// slices interleaved with the other rates (low, r1, low, r2, ...), so a
// slowdown of the host during one stretch of the run cannot move the whole
// low-rate median; the slices are pooled into the ladder's first phase.
func (e *serveEnv) runLadder(seconds float64, phase0 int) []phaseOut {
	steps := len(e.shape.ladder) - 1
	lowSec := seconds * e.shape.lowShare / float64(steps)
	stepSec := seconds * (1 - e.shape.lowShare) / float64(steps)
	run := func(phase int, rate, sec float64) phaseOut {
		copies := max(1, int(math.Round(rate*sec/float64(len(e.shape.mix)))))
		runtime.GC()
		return e.runPhase(rate, schedule(e.seed, phase0+phase, rate, copies, e.specs()))
	}
	out := []phaseOut{{rate: e.shape.ladder[0]}}
	for i, rate := range e.shape.ladder[1:] {
		l := run(2*i, out[0].rate, lowSec)
		out[0].jobs = append(out[0].jobs, l.jobs...)
		out[0].lat = append(out[0].lat, l.lat...)
		out[0].backlog = max(out[0].backlog, l.backlog)
		out = append(out, run(2*i+1, rate, stepSec))
	}
	return out
}

// maxRate is where the ladder's tail latency first crosses the limit.
// A rate fails when its tail latency misses the limit, a job fails, or
// its backlog grows; tails are read as a running maximum up the ladder,
// so a lucky high rate cannot follow a failing one. Between the last
// passing rate and the first failing one the tail is interpolated
// linearly to the limit (a failure by backlog alone gets no credit past
// the passing rate); a failing first rate interpolates from zero.
func maxRate(ph []phaseOut, limit float64, maxBacklog int) float64 {
	prevRate, prevTail := 0.0, 0.0
	for _, p := range ph {
		t := math.Max(prevTail, tailOrMax(p.lat))
		switch {
		case t > limit && !math.IsInf(t, 1):
			return prevRate + (p.rate-prevRate)*(limit-prevTail)/(t-prevTail)
		case t > limit || p.backlog > maxBacklog:
			return prevRate
		}
		prevRate, prevTail = p.rate, t
	}
	return prevRate
}

// tailOrMax is the tail latency, or the maximum when the samples are too
// few for a tail percentile.
func tailOrMax(lat []float64) float64 {
	if v, _, _, ok := tail(lat); ok {
		return v
	}
	return maxOf(lat)
}

// runServeWorkload is one invocation on the serve-mix workload.
func runServeWorkload(c runConfig, sh serveShape) (map[string]float64, *tally, *spans, error) {
	t := &tally{}
	vals := map[string]float64{}
	var sp *spans
	if c.trace {
		sp = newSpans()
	}
	graphs := map[string]*graph.Graph{}
	for _, name := range sh.datasets {
		spec, err := graph.Dataset(name)
		if err != nil {
			return nil, t, sp, err
		}
		graphs[name] = graph.GenerateChungLu(spec.Nodes, spec.Edges/2, spec.Gamma, spec.Seed)
	}
	dir, err := os.MkdirTemp(c.outDir, "serve-")
	if err != nil {
		return nil, t, sp, err
	}
	defer os.RemoveAll(dir)

	var env *serveEnv
	var setups []map[string]time.Duration
	for i := range c.setupReps {
		runtime.GC()
		// A fresh directory per set-up: an earlier snapshot may still map
		// its dump file, which must not be truncated under it.
		repDir := filepath.Join(dir, fmt.Sprint(i))
		if err := os.Mkdir(repDir, 0o755); err != nil {
			return nil, t, sp, err
		}
		e, times, err := setUpServe(sh, graphs, repDir, c.seed, sp)
		if err != nil {
			return nil, t, sp, err
		}
		env, setups = e, append(setups, times)
	}
	pick := func(k string) []float64 {
		return durs(setups, func(m map[string]time.Duration) time.Duration { return m[k] })
	}
	vals["setup_s"] = median(pick("total"))
	vals["graph.write_v3_s"] = median(pick("write"))
	vals["graph.load_v3_s"] = median(pick("load"))
	vals["core.train_s"] = median(pick("train"))

	plainSec := c.seconds
	if c.trace {
		plainSec = c.seconds / 2
	}
	plain := env.runLadder(plainSec, 0)
	vals["peak_rss_mb"] = peakRSSMB()
	refits0 := env.clock.refits
	var traced []phaseOut
	if c.trace {
		traced = env.runLadder(c.seconds-plainSec, 2*len(sh.ladder))
	}

	// Timing has stopped: check every completed job's report against a
	// direct in-process run of the same spec.
	env.checkReports(append(append([]phaseOut(nil), plain...), traced...), t)

	vals["job_s_p50"] = median(plain[0].lat)
	vals["max_rate_jobs_s"] = maxRate(plain, sh.limit.Seconds(), sh.maxBacklog)
	latencyMetrics(vals, plain, sh.high)
	for _, p := range plain {
		// Recorded in the result file only: the ladder the rate came from.
		v, pct, n, _ := tail(p.lat)
		pre := fmt.Sprintf("ladder.%g.", p.rate)
		vals[pre+"p50_s"], vals[pre+"tail_s"], vals[pre+"tail_pct"] = median(p.lat), v, pct
		vals[pre+"samples"], vals[pre+"backlog"] = float64(n), float64(p.backlog)
	}
	if c.trace {
		env.tracedServeMetrics(vals, traced, sp, refits0)
		vals["trace.overhead_frac"] = median(traced[0].lat)/vals["job_s_p50"] - 1
	}
	return vals, t, sp, nil
}

// checkReports counts every submitted job as one operation: it fails when
// the server rejected or failed it, or when its report bytes differ from
// a direct in-process run of its spec (run the way vcrun runs it).
func (e *serveEnv) checkReports(phases []phaseOut, t *tally) {
	direct := map[string][]byte{}
	for _, p := range phases {
		for _, j := range p.jobs {
			if j.err != nil {
				t.fail(j.err)
				continue
			}
			key := fmt.Sprintf("%+v", j.spec)
			want, ok := direct[key]
			if !ok {
				var err error
				if want, err = e.directReport(j.spec); err != nil {
					t.fail(fmt.Errorf("direct run of %s: %w", key, err))
					continue
				}
				direct[key] = want
			}
			got, err := e.report(j.id)
			t.check(err == nil && bytes.Equal(got, want), "job %s (%s/%s): served report differs from a direct run (%v)",
				j.id, j.spec.Task, j.spec.Dataset, err)
		}
	}
}

// directReport runs the spec in-process exactly as vcrun -report would
// against the service's cluster and system profile.
func (e *serveEnv) directReport(sp serve.JobSpec) ([]byte, error) {
	spec, err := graph.Dataset(sp.Dataset)
	if err != nil {
		return nil, err
	}
	g := e.graphs[sp.Dataset]
	env := &batchEnv{
		shape: batchShape{
			task: sp.Task, dataset: sp.Dataset, system: sim.PregelPlus,
			// The server's defaults for unset fields (JobSpec.validate).
			workload: sp.Workload, batches: max(sp.Batches, 1), k: max(sp.K, 2),
		},
		spec: spec, g: g, part: graph.HashPartition(g.NumVertices(), sim.Galaxy8.Machines),
		cluster: sim.Galaxy8, scale: spec.ScaleNodes(), seed: sp.Seed,
		sources: firstSources(g.NumVertices(), sp.Workload),
	}
	o, err := env.runJob(nil, false, false)
	if err != nil {
		return nil, err
	}
	return o.report, nil
}

// firstSources is vcrun's deterministic source selection.
func firstSources(n, count int) []graph.VertexID {
	count = min(count, n)
	seen := make(map[graph.VertexID]bool, count)
	out := make([]graph.VertexID, 0, count)
	for i := 0; len(out) < count; i++ {
		v := graph.VertexID(uint64(i) * 2654435761 % uint64(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// latencyMetrics reports the job latency at the low and high rates, with
// the tail percentile used and its sample count, and how late the
// generator ran behind its schedule.
func latencyMetrics(vals map[string]float64, ph []phaseOut, high int) {
	for _, lv := range []struct {
		name string
		p    phaseOut
	}{{"low", ph[0]}, {"high", ph[high]}} {
		v, pct, n, _ := tail(lv.p.lat)
		vals["serve.lat_p50_s."+lv.name] = median(lv.p.lat)
		vals["serve.lat_tail_s."+lv.name] = v
		vals["serve.lat_tail_pct."+lv.name] = pct
		vals["serve.lat_samples."+lv.name] = float64(n)
	}
	late := 0.0
	for _, p := range ph {
		for _, j := range p.jobs {
			late = math.Max(late, j.sent.Sub(j.due).Seconds())
		}
	}
	vals["gen.late_s_max"] = late
}

// tracedServeMetrics fills the serve-layer metrics from the traced ladder
// and records each job's spans: serve.job [due, completed] over
// serve.submit (the handler call), serve.queue (queued -> admitted) and
// serve.run (admitted -> completed).
func (e *serveEnv) tracedServeMetrics(vals map[string]float64, ph []phaseOut, sp *spans, refits0 int) {
	var submit, queue, run []float64
	roots := map[obs.SpanID]bool{}
	track := 0
	for _, p := range ph {
		for _, j := range p.jobs {
			track++
			submit = append(submit, j.back.Sub(j.sent).Seconds())
			ev := e.clock.times(j.id)
			done, ok := ev[obs.EventJobCompleted]
			if j.err != nil || !ok {
				continue
			}
			adm := ev[obs.EventJobAdmitted]
			wait := time.Duration(0)
			if q, ok := ev[obs.EventJobQueued]; ok {
				wait = adm.Sub(q)
			}
			queue = append(queue, wait.Seconds())
			run = append(run, done.Sub(adm).Seconds())
			end := done
			if j.back.After(end) {
				end = j.back
			}
			root := sp.add(0, "serve.job", track, j.due, end, obs.L("job", j.id))
			roots[root] = true
			sp.add(root, "serve.submit", track, j.sent, j.back)
			if q, ok := ev[obs.EventJobQueued]; ok {
				sp.add(root, "serve.queue", track, q, adm)
			}
			sp.add(root, "serve.run", track, adm, done)
		}
	}
	vals["serve.submit_s_p50"] = median(submit)
	vals["serve.queue_wait_s_p50"] = median(queue)
	vals["serve.queue_wait_s_tail"] = tailOrMax(queue)
	vals["serve.run_s_p50"] = median(run)
	vals["serve.run_s_tail"] = tailOrMax(run)
	vals["serve.queue_depth_max"] = float64(e.clock.depthMax)
	vals["serve.refits"] = float64(e.clock.refits - refits0)
	layers := layerSelf(selfTimes(sp.t.Spans(), roots))
	jobs := float64(max(len(roots), 1))
	vals["self.serve_s"] = layers["serve"] / jobs
}
