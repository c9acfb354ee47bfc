package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"vcmt/internal/serve"
)

func TestScheduleIsSeededOpenLoopPoisson(t *testing.T) {
	mix := serveMix.mix
	a := schedule(7, 0, 10, 4, mix)
	if !reflect.DeepEqual(a, schedule(7, 0, 10, 4, mix)) {
		t.Fatal("the same seed and phase gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 0, 10, 4, mix)) {
		t.Fatal("another seed gave the same schedule")
	}
	if reflect.DeepEqual(a, schedule(7, 1, 10, 4, mix)) {
		t.Fatal("another phase gave the same schedule")
	}

	count := map[string]int{}
	for i, arr := range a {
		count[fmt.Sprintf("%+v", arr.spec)]++
		if i > 0 && arr.offset < a[i-1].offset {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, arr.offset, i-1, a[i-1].offset)
		}
	}
	for _, sp := range mix {
		if c := count[fmt.Sprintf("%+v", sp)]; c != 4 {
			t.Errorf("spec %+v scheduled %d times, want 4", sp, c)
		}
	}
	// Stratified exponential gaps: the n gaps average 1/rate (to within
	// the quantile grid's truncation of the far tail).
	n := float64(len(a))
	if got, want := a[len(a)-1].offset.Seconds(), n/10; math.Abs(got-want) > 0.05*want {
		t.Errorf("schedule spans %.3f s, want about %.3f s", got, want)
	}
}

// TestLatencyCountsFromDueTime stalls the generator behind a slow submit
// and checks that the stalled job's latency includes the stall.
func TestLatencyCountsFromDueTime(t *testing.T) {
	clock := newEventClock()
	var mu sync.Mutex
	next := 0
	stall := 60 * time.Millisecond
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		next++
		id := fmt.Sprintf("job-%04d", next)
		mu.Unlock()
		time.Sleep(stall)
		fmt.Fprintf(clock, "{\"type\":%q,\"job\":%q}\n", "job_completed", id)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.JobView{ID: id, State: serve.JobRunning})
	})
	e := &serveEnv{handler: h, wait: func() {}, clock: clock}
	sp := serve.JobSpec{Task: "BKHS", Dataset: "DBLP", Workload: 1}
	p := e.runPhase(100, []arrival{{0, sp}, {10 * time.Millisecond, sp}})

	j := p.jobs[1]
	if late := j.sent.Sub(j.due); late < stall-10*time.Millisecond-time.Millisecond {
		t.Fatalf("second job sent %v after its due time, want the generator stalled ~%v", late, stall-10*time.Millisecond)
	}
	done := clock.times(j.id)["job_completed"]
	if got, want := p.lat[1], done.Sub(j.due).Seconds(); got != want {
		t.Fatalf("latency %g s, want completion - due = %g s", got, want)
	}
	if p.lat[1] < done.Sub(j.sent).Seconds()+0.04 {
		t.Fatalf("latency %g s does not include the %v the generator ran late", p.lat[1], j.sent.Sub(j.due))
	}
}

func TestMaxRate(t *testing.T) {
	phase := func(rate, tailS float64, backlog int) phaseOut {
		lat := make([]float64, 40)
		for i := range lat {
			lat[i] = tailS
		}
		return phaseOut{rate: rate, lat: lat, backlog: backlog}
	}
	const limit = 0.3
	for _, c := range []struct {
		name string
		ph   []phaseOut
		want float64
	}{
		{"all pass", []phaseOut{phase(10, .1, 0), phase(20, .1, 0), phase(30, .2, 0)}, 30},
		{"crossing", []phaseOut{phase(10, .1, 0), phase(20, .2, 0), phase(30, .5, 0)}, 20 + 10*(.1/.3)},
		{"running max", []phaseOut{phase(10, .1, 0), phase(20, .4, 0), phase(30, .2, 0)}, 10 + 10*(.2/.3)},
		{"growing backlog", []phaseOut{phase(10, .1, 0), phase(20, .2, 100)}, 10},
		{"first rate fails", []phaseOut{phase(10, .6, 0)}, 5},
		{"failed job", []phaseOut{phase(10, .1, 0), {rate: 20, lat: []float64{math.Inf(1)}}}, 10},
	} {
		if got := maxRate(c.ph, limit, 16); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: maxRate = %g, want %g", c.name, got, c.want)
		}
	}
}
