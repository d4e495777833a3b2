package des

import (
	"testing"

	"repro/internal/obs"
)

// procModel is a process-heavy model exercising the active-object
// layer: holds, resource contention, a wait group, and cancellation. It
// returns a deterministic fingerprint of the run.
func procModel(e *Engine) *[]float64 {
	trace := &[]float64{}
	res := e.NewResource("srv", 1)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("worker", func(p *Process) {
			src := p.Engine().Stream("w" + string(rune('0'+i)))
			for j := 0; j < 4; j++ {
				p.Hold(src.Exp(1))
				res.Acquire(p, 1)
				p.Hold(0.5)
				res.Release(1)
				*trace = append(*trace, p.Now())
			}
		})
	}
	gate := e.NewWaitGroup()
	gate.Add(1)
	e.Spawn("sleeper", func(p *Process) { gate.Wait(p) })
	e.Spawn("poker", func(p *Process) {
		p.Hold(3)
		gate.Done()
		// Canceled before firing; its tombstone is discarded at t≈13,
		// inside the run horizon, so the discard is observable.
		tm := e.Schedule(10, func() { *trace = append(*trace, -1) })
		p.Hold(1)
		tm.Cancel()
	})
	e.At(40, func() { e.Stop() })
	return trace
}

// TestProcessTracingBitIdentical pins that attaching the full observer
// (hook + ring recorder + histograms) to a process-oriented model
// changes nothing about the simulation: same final time, same event
// counters, same model trace, bit-identical.
func TestProcessTracingBitIdentical(t *testing.T) {
	run := func(o *Observer) (float64, Stats, []float64) {
		e := NewEngine(WithSeed(11))
		if o != nil {
			e.SetObserver(*o)
		}
		trace := procModel(e)
		end := e.Run()
		return end, e.Stats(), *trace
	}
	endRef, stRef, trRef := run(nil)
	if len(trRef) == 0 {
		t.Fatal("model produced no trace; test is vacuous")
	}

	rec := obs.NewRecorder(1 << 12)
	met := &obs.Metrics{}
	hooked := 0
	o := &Observer{
		Hook:     func(obs.Event) { hooked++ },
		Recorder: rec,
		Metrics:  met,
	}
	end, st, tr := run(o)
	if end != endRef {
		t.Fatalf("end time %v with tracing, %v without", end, endRef)
	}
	if st.Executed != stRef.Executed || st.Scheduled != stRef.Scheduled ||
		st.Canceled != stRef.Canceled || st.MaxQueue != stRef.MaxQueue {
		t.Fatalf("stats %+v with tracing, want %+v", st, stRef)
	}
	if len(tr) != len(trRef) {
		t.Fatalf("model trace length %d, want %d", len(tr), len(trRef))
	}
	for i := range tr {
		if tr[i] != trRef[i] {
			t.Fatalf("model trace diverges at %d: %v vs %v", i, tr[i], trRef[i])
		}
	}
	if uint64(hooked) != st.Executed {
		t.Fatalf("hook fired %d times, executed %d", hooked, st.Executed)
	}
	if st.Exec == nil || st.Dwell == nil {
		t.Fatal("Stats missing histograms with metrics attached")
	}
	if st.Exec.Count() != st.Executed || st.Dwell.Count() != st.Executed {
		t.Fatalf("histogram counts %d/%d, executed %d",
			st.Exec.Count(), st.Dwell.Count(), st.Executed)
	}
}

// TestProcessTracingSpansNest pins the shape of the recorded spans for
// active-object handovers: the engine hands control to at most one
// process at a time, so execute spans must be strictly sequential on
// the wall clock (each span ends before the next begins — properly
// nested, never interleaved), with simulation time non-decreasing, and
// the handover labels must appear: a process's start, and des:resume
// for every resume of a block.
func TestProcessTracingSpansNest(t *testing.T) {
	e := NewEngine(WithSeed(11))
	rec := obs.NewRecorder(1 << 12)
	e.SetObserver(Observer{Recorder: rec})
	procModel(e)
	e.Run()
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d spans; raise capacity", rec.Dropped())
	}

	spans := rec.Spans()
	labels := map[string]bool{}
	var execs []obs.Span
	for _, s := range spans {
		if s.Kind == obs.KindExec {
			execs = append(execs, s)
			labels[s.Label] = true
		}
	}
	if len(execs) == 0 {
		t.Fatal("no exec spans recorded")
	}
	for i := 1; i < len(execs); i++ {
		prev, cur := execs[i-1], execs[i]
		if prev.Wall+prev.Dur > cur.Wall {
			t.Fatalf("exec spans overlap: [%d +%d] then [%d]; handover must be strict",
				prev.Wall, prev.Dur, cur.Wall)
		}
		if cur.Time < prev.Time {
			t.Fatalf("sim time regressed across spans: %v after %v", cur.Time, prev.Time)
		}
	}
	for _, want := range []string{"des:start", "des:resume"} {
		if !labels[want] {
			t.Fatalf("no exec span labeled %q (have %v)", want, labels)
		}
	}
	// The canceled decoy timer must surface as a cancel mark, and every
	// exec span must have a matching schedule mark (same seq).
	scheduled := map[uint64]bool{}
	cancels := 0
	for _, s := range spans {
		switch s.Kind {
		case obs.KindSchedule:
			scheduled[s.Seq] = true
		case obs.KindCancel:
			cancels++
		}
	}
	if cancels == 0 {
		t.Fatal("no cancel marks recorded")
	}
	for _, x := range execs {
		if !scheduled[x.Seq] {
			t.Fatalf("exec span seq %d has no schedule mark", x.Seq)
		}
	}
}
