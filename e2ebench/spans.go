package main

import (
	"sort"
	"strings"
	"time"

	"vcmt/internal/obs"
	"vcmt/internal/sim"
)

// spans records wall-clock spans around calls into the program's layers,
// in memory, into an obs.Tracer; the file is written when the run ends.
// Span names are "<layer>.<call>", so self time aggregates by layer. A nil
// *spans records nothing, which is how plain runs stay untraced.
type spans struct {
	t     *obs.Tracer
	epoch time.Time
}

func newSpans() *spans {
	s := &spans{t: obs.NewTracer(), epoch: time.Now()}
	s.t.NameProc(1, "e2ebench (wall clock)")
	return s
}

func (s *spans) us(t time.Time) int64 { return t.Sub(s.epoch).Microseconds() }

// begin opens a span at t; track separates concurrent jobs in the viewer.
func (s *spans) begin(parent obs.SpanID, name string, track int, t time.Time, args ...obs.Label) obs.SpanID {
	if s == nil {
		return 0
	}
	return s.t.BeginAt(parent, name, strings.SplitN(name, ".", 2)[0], 1, track, s.us(t), args...)
}

func (s *spans) end(id obs.SpanID, t time.Time) {
	if s == nil {
		return
	}
	s.t.EndAt(id, s.us(t))
}

// add records a closed span [from, to].
func (s *spans) add(parent obs.SpanID, name string, track int, from, to time.Time, args ...obs.Label) obs.SpanID {
	id := s.begin(parent, name, track, from, args...)
	s.end(id, to)
	return id
}

// selfTimes returns, per span name, the summed self time in seconds of the
// spans under the given roots (roots included): a span's duration minus the
// part of it its children cover.
func selfTimes(all []obs.Span, roots map[obs.SpanID]bool) map[string]float64 {
	children := make(map[obs.SpanID][]obs.Span)
	byID := make(map[obs.SpanID]obs.Span, len(all))
	for _, sp := range all {
		children[sp.Parent] = append(children[sp.Parent], sp)
		byID[sp.ID] = sp
	}
	out := make(map[string]float64)
	var walk func(sp obs.Span)
	walk = func(sp obs.Span) {
		kids := children[sp.ID]
		out[sp.Name] += float64(sp.DurUS-covered(sp, kids)) / 1e6
		for _, k := range kids {
			walk(k)
		}
	}
	for id := range roots {
		if sp, ok := byID[id]; ok {
			walk(sp)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent (children of a concurrent parent may overlap each other).
func covered(parent obs.Span, kids []obs.Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartUS, parent.StartUS), min(k.End(), parent.End())
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// layerSelf folds per-name self times into per-layer totals (the layer is
// the name's first dot-separated word).
func layerSelf(byName map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for name, v := range byName {
		out[strings.SplitN(name, ".", 2)[0]] += v
	}
	return out
}

// roundTimer wraps the job's sim.Observer (the obs.Collector) and
// timestamps every priced superstep from outside the engine. The gap
// between one OnRound's return and the next OnRound's entry is one
// superstep of engine delivery plus task Compute plus pricing; the time
// inside the wrapped observer is telemetry (obs). It keeps a copy of every
// RoundStats, so pricing can be replayed and timed on its own. The engine
// calls the observer synchronously from within RunBatch, so one job's
// callbacks never run concurrently.
type roundTimer struct {
	inner sim.Observer
	sp    *spans

	batchSpan obs.SpanID
	mark      time.Time // end of the last observer call, or batch entry
	first     bool      // no OnRound yet in this batch

	gaps       []float64 // superstep gaps, seconds
	observer   time.Duration
	batchStart time.Duration // batch entry -> first OnRound (engine build + seed)
	batchEnd   time.Duration // last OnRound -> RunBatch return
	batches    []replayBatch
	logical    int64
	physical   int64
}

// replayBatch is one batch's recorded supersteps and the residual the
// batch left behind.
type replayBatch struct {
	rounds   []sim.RoundStats
	residual []int64
}

// enterBatch marks the start of a RunBatch call under the batch span.
func (r *roundTimer) enterBatch(batchSpan obs.SpanID, t time.Time) {
	r.batchSpan, r.mark, r.first = batchSpan, t, true
	r.batches = append(r.batches, replayBatch{})
}

// leaveBatch closes the batch (last OnRound -> RunBatch return) and
// records its residual for the pricing replay.
func (r *roundTimer) leaveBatch(t time.Time, residual []int64) {
	name, acc := "tasks.batch_end", &r.batchEnd
	if r.first { // a batch without rounds is all start-up
		name, acc = "tasks.batch_start", &r.batchStart
	}
	*acc += t.Sub(r.mark)
	r.sp.add(r.batchSpan, name, 0, r.mark, t)
	r.batches[len(r.batches)-1].residual = residual
}

func (r *roundTimer) OnBatchStart(batch int, simSeconds float64) {
	t0 := time.Now()
	r.inner.OnBatchStart(batch, simSeconds)
	r.observer += time.Since(t0)
}

func (r *roundTimer) OnRound(o sim.RoundObservation) {
	t0 := time.Now()
	if r.first {
		r.sp.add(r.batchSpan, "tasks.batch_start", 0, r.mark, t0)
		r.batchStart += t0.Sub(r.mark)
		r.first = false
	} else {
		r.sp.add(r.batchSpan, "engine.superstep", 0, r.mark, t0)
		r.gaps = append(r.gaps, t0.Sub(r.mark).Seconds())
	}
	st := o.Stats
	st.PerMachine = append([]sim.MachineRound(nil), st.PerMachine...)
	b := &r.batches[len(r.batches)-1]
	b.rounds = append(b.rounds, st)
	r.logical += st.TotalSentLogical()
	r.physical += st.TotalSentPhysical()

	r.inner.OnRound(o)

	t1 := time.Now()
	r.sp.add(r.batchSpan, "obs.observer", 0, t0, t1)
	r.observer += t1.Sub(t0)
	r.mark = t1
}

// replay prices the recorded supersteps through a fresh sim.Run with the
// given configuration (and its observer). With dropOOC the out-of-core
// counters are zeroed first, as if the job had run in memory.
func replay(cfg sim.JobConfig, batches []replayBatch, dropOOC bool) *sim.Run {
	run := sim.NewRun(cfg)
	for _, b := range batches {
		run.BeginBatch()
		for _, st := range b.rounds {
			if dropOOC {
				st.OOCReadBytes, st.OOCWriteBytes, st.OOCWindowPeakBytes = 0, 0, 0
			}
			run.ObserveRound(st)
		}
		run.AddResidual(b.residual)
	}
	return run
}
