package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/des"
)

// refStart is Activity.Start as it was before the activity became an
// event chain: one process looping over Hold. It is the reference the
// event chain must reproduce event for event.
func (a *Activity) refStart(e *des.Engine) {
	if a.Interarrival == nil || a.Emit == nil {
		panic(fmt.Sprintf("workload: activity %q missing Interarrival or Emit", a.Name))
	}
	e.Spawn("activity:"+a.Name, func(p *des.Process) {
		for {
			if a.MaxJobs > 0 && a.emitted >= a.MaxJobs {
				return
			}
			gap := a.Interarrival()
			if gap < 0 {
				panic(fmt.Sprintf("workload: activity %q drew negative gap %v", a.Name, gap))
			}
			p.Hold(gap)
			if a.Until > 0 && p.Now() > a.Until {
				return
			}
			a.Emit(a.emitted)
			a.emitted++
		}
	})
}

// TestActivityMatchesProcessReference runs three activities that tie
// with each other and with the events their emissions schedule, once as
// event chains and once as the reference processes: every emission
// happens at the same instant in the same order, and the engine
// executes and schedules the same events.
func TestActivityMatchesProcessReference(t *testing.T) {
	run := func(seed uint64, reference bool) ([]string, des.Stats) {
		e := des.NewEngine(des.WithSeed(seed))
		src := e.Stream("gaps")
		var log []string
		acts := []*Activity{
			{Name: "capped", Interarrival: Poisson(src, 0.5), MaxJobs: 40},
			{Name: "until", Interarrival: Fixed(1), Until: 30},
			{Name: "both", Interarrival: func() float64 { return float64(src.Intn(3)) }, MaxJobs: 25, Until: 45},
		}
		for _, a := range acts {
			a := a
			a.Emit = func(i int) {
				log = append(log, fmt.Sprintf("%s %d %x", a.Name, i, math.Float64bits(e.Now())))
				e.Schedule(float64(src.Intn(2)), func() {
					log = append(log, fmt.Sprintf("job %s %d %x", a.Name, i, math.Float64bits(e.Now())))
				})
			}
			if reference {
				a.refStart(e)
			} else {
				a.Start(e)
			}
		}
		e.Run()
		return log, e.Stats()
	}
	for seed := uint64(1); seed <= 3; seed++ {
		got, gs := run(seed, false)
		want, ws := run(seed, true)
		if gs.Executed != ws.Executed || gs.Scheduled != ws.Scheduled || gs.MaxQueue != ws.MaxQueue {
			t.Fatalf("seed %d: events %+v, reference %+v", seed, gs, ws)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d line %d: %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}
