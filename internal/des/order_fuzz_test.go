package des

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/checkpoint"
)

// FuzzEngineOrderAgainstReference runs one random program on the
// engine and on refEngine, a sorted slice with plain
// cancel-then-schedule semantics, and requires the same executed
// (time, seq) order, the same PeekTime, Now and checkpoint answers along
// the way and the same Executed and Scheduled counts. The programs
// schedule closures and ops at zero and positive delays with many
// equal-time ties, cancel, re-arm (later, to the same time, earlier, to
// now, on fired and stale handles), stop, step, run to horizons below
// now, peek, and checkpoint and restore mid-run; event handlers run
// program steps too. See orderProgram for the encoding.
//
// It also holds the engine's counts to what the program did, after
// every step, in handlers too: QueueLen is Scheduled − Executed −
// Canceled − the re-arms made in place, so the heap root an engine
// leaves in place for the running event's reschedule must not show;
// MaxQueue is the largest QueueLen seen; and at the end Canceled is the
// number of cancels that found a pending record, less the tombstones a
// re-arm in place revived. engineAPI keeps the tally.
func FuzzEngineOrderAgainstReference(f *testing.F) {
	for _, seed := range orderSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkOrderProgram(t, prog)
	})
}

// orderSeeds are the fuzz corpus, and TestOrderSeeds runs them in
// every test run. The first two are the orders a re-arm gets wrong
// when it lets an event at the current instant run from the lane
// behind events scheduled after its key was drawn.
var orderSeeds = [][]byte{
	// A moved record pushed again into the lane: the op at 1 is
	// re-armed to 1 from t=0.5 (same instant, new seq), then a closure
	// is scheduled at 1. The re-armed op must run first.
	{opSchedOp, 2, // op at 1
		opSchedOp, 1, // op at 0.5
		opStep,                      // runs the op at 0.5: its handler steps follow
		opRearm, 0, 1, opSchedFn, 1, // re-arm handle 0 to 1, closure at 1
		opEnd,
		opRun},
	// A re-arm to the current instant: at t=1 a closure joins the lane,
	// the op due at 1 is re-armed to now, and another closure joins the
	// lane. The re-armed op runs between them.
	{opSchedOp, 2, // op at 1 (handle 0)
		opSchedFn, 2, // closure at 1: its handler steps follow
		opRun,
		opSchedFn, 0, opRearm, 1, 0, opSchedFn, 0, opEnd}, // re-arm handle 1
	// A checkpoint with only ops pending, and re-arms in and out of
	// place.
	{opSchedOp, 3, opSchedOp, 3, opRearm, 0, 3, opCheckpoint, opRun},
	{opSchedOp, 1, opSchedFn, 2, opCancel, 1, opCheckpoint, opPeek, opRunUntil, 0, opRun},
	{opSchedOp, 2, opRearm, 0, 3, opRearm, 1, 2, opRearm, 0, 1, opRun},
	{opSchedFn, 0, opSchedOp, 0, opStop, opStep, opRunUntil, 2, opPeek, opRun},
	{opSchedOp, 2, opSchedOp, 2, opRearm, 0, 3, opCheckpoint, opRunUntil, 3, opRearm, 2, 0, opRun},
}

// The program's opcodes. A program is steps read from one cursor by
// the program and by every handler it makes run: a handler runs steps
// until opEnd, three steps or the end of the program, and may not
// step, run or checkpoint (those are skipped).
// The operand bytes of an opcode follow it: a delay index into
// orderDelays, a handle index modulo the handles issued.
const (
	opSchedFn    = iota // delay: a closure event
	opSchedOp           // delay: an op event
	opCancel            // handle
	opRearm             // handle, delay: RescheduleOp
	opStop              //
	opStep              // top level only
	opRunUntil          // d: run to now + d − 1, which may be below now
	opPeek              //
	opCheckpoint        // top level only: AppendState, RestoreState
	opEnd               // ends a handler's steps
	opRun               // top level only: Run
	numOps
)

// orderDelays are few and small, so equal-time ties and re-arms to the
// same time are common.
var orderDelays = [...]float64{0, 0.5, 1, 2}

// orderAPI is what a program drives: the engine under test or the
// reference. Handles are indices the adapter keeps; a restore drops
// them all (the engine invalidates them).
type orderAPI interface {
	now() float64
	schedule(delay float64, op bool, id uint64) // id is the seq it draws
	cancel(h int)
	rearm(h int, delay float64, id uint64)
	handles() int
	stop()
	step()
	runUntil(horizon float64)
	peek() float64
	checkpoint() string // "" or the AppendState/RestoreState error
	counts() (executed, scheduled uint64)
	afterStep() // called after every step: the engine checks its counts
}

// orderProgram interprets prog against api; fire is what api calls
// when an event runs.
type orderProgram struct {
	prog  []byte
	pc    int
	api   orderAPI
	ids   uint64 // schedules so far: the next schedule's seq
	trace []string
}

func (p *orderProgram) byte() (byte, bool) {
	if p.pc >= len(p.prog) {
		return 0, false
	}
	b := p.prog[p.pc]
	p.pc++
	return b, true
}

// fire is an event's callback: it logs the event and runs its steps.
func (p *orderProgram) fire(id uint64) {
	p.trace = append(p.trace, fmt.Sprintf("exec t=%v seq=%d", p.api.now(), id))
	for i := 0; i < 3; i++ {
		if !p.stepOnce(true) {
			return
		}
	}
}

// stepOnce runs the next step; false at opEnd or the program's end.
func (p *orderProgram) stepOnce(inHandler bool) bool {
	b, ok := p.byte()
	if !ok {
		return false
	}
	operand := func() int { v, _ := p.byte(); return int(v) }
	defer p.api.afterStep()
	switch b % numOps {
	case opSchedFn, opSchedOp:
		d := orderDelays[operand()%len(orderDelays)]
		p.ids++
		p.api.schedule(d, b%numOps == opSchedOp, p.ids)
	case opCancel:
		h := operand()
		if n := p.api.handles(); n > 0 {
			p.api.cancel(h % n)
		}
	case opRearm:
		h, d := operand(), orderDelays[operand()%len(orderDelays)]
		if n := p.api.handles(); n > 0 {
			p.ids++
			p.api.rearm(h%n, d, p.ids)
		}
	case opStop:
		p.api.stop()
	case opStep:
		if !inHandler {
			p.api.step()
			p.trace = append(p.trace, fmt.Sprintf("step now=%v", p.api.now()))
		}
	case opRunUntil:
		h := p.api.now() + float64(operand()%4) - 1
		if !inHandler {
			p.api.runUntil(h)
			p.trace = append(p.trace, fmt.Sprintf("until %v now=%v", h, p.api.now()))
		}
	case opPeek:
		p.trace = append(p.trace, fmt.Sprintf("peek %v", p.api.peek()))
	case opCheckpoint:
		if !inHandler {
			p.trace = append(p.trace, "checkpoint "+p.api.checkpoint())
		}
	case opEnd:
		return false
	case opRun:
		if !inHandler {
			p.api.runUntil(math.Inf(1))
			p.trace = append(p.trace, fmt.Sprintf("run now=%v", p.api.now()))
		}
	}
	return true
}

// runOrderProgram runs prog to its end, then drains the events left.
func runOrderProgram(prog []byte, mk func(*orderProgram) orderAPI) *orderProgram {
	p := &orderProgram{prog: prog}
	p.api = mk(p)
	for p.pc < len(p.prog) {
		p.stepOnce(false)
	}
	p.api.runUntil(math.Inf(1))
	ex, sc := p.api.counts()
	p.trace = append(p.trace, fmt.Sprintf("end now=%v executed=%d scheduled=%d", p.api.now(), ex, sc))
	return p
}

func checkOrderProgram(t *testing.T, prog []byte) {
	t.Helper()
	run := runOrderProgram(prog, func(p *orderProgram) orderAPI { return newEngineAPI(p) })
	got := run.trace
	want := runOrderProgram(prog, func(p *orderProgram) orderAPI { return &refEngine{p: p} }).trace
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("program %v: line %d is %q, the reference's %q\nengine:    %q\nreference: %q",
				prog, i, got[i], want[i], got[:i+1], want[:i+1])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("program %v: %d trace lines, the reference %d\nengine:    %q\nreference: %q",
			prog, len(got), len(want), got, want)
	}

	a := run.api.(*engineAPI)
	if a.bad != "" {
		t.Fatalf("program %v: %s", prog, a.bad)
	}
	if s := a.e.Stats(); s.MaxQueue != a.maxLen || s.Canceled != a.cancels {
		t.Fatalf("program %v: MaxQueue %d, Canceled %d; the largest QueueLen seen was %d, and %d cancels left a tombstone",
			prog, s.MaxQueue, s.Canceled, a.maxLen, a.cancels)
	}
}

// TestOrderSeeds runs the fuzz corpus in every test run.
func TestOrderSeeds(t *testing.T) {
	for _, seed := range orderSeeds {
		checkOrderProgram(t, seed)
	}
}

// engineAPI drives an Engine. Op events carry their seq as the op
// argument, closure events capture it. It tallies what the engine's
// counts must agree with: the re-arms RescheduleOp makes in place by
// its documented rule (a handle whose record is pending, and a new
// time later than both the handle's and now), the cancels that
// tombstone a pending record, less the tombstones a re-arm in place
// revives, and the largest QueueLen seen; bad is the first step whose
// QueueLen disagreed.
type engineAPI struct {
	e  *Engine
	p  *orderProgram
	op Op
	hs []Timer

	inPlace, cancels uint64
	maxLen           int
	bad              string
}

func newEngineAPI(p *orderProgram) *engineAPI {
	a := &engineAPI{e: NewEngine(), p: p}
	a.op = a.e.RegisterOp("fuzz.fire", func(arg []byte) { p.fire(binary.LittleEndian.Uint64(arg)) })
	return a
}

func idArg(id uint64) []byte { return binary.LittleEndian.AppendUint64(nil, id) }

func (a *engineAPI) now() float64 { return a.e.Now() }
func (a *engineAPI) handles() int { return len(a.hs) }
func (a *engineAPI) stop()        { a.e.Stop() }
func (a *engineAPI) step()        { a.e.Step() }
func (a *engineAPI) peek() float64 {
	return a.e.PeekTime()
}
func (a *engineAPI) runUntil(h float64) { a.e.RunUntil(h) }
func (a *engineAPI) counts() (uint64, uint64) {
	s := a.e.Stats()
	return s.Executed, s.Scheduled
}

func (a *engineAPI) issued(tm Timer, id uint64) {
	if tm.seq != id {
		panic(fmt.Sprintf("schedule drew seq %d, want %d", tm.seq, id))
	}
	a.hs = append(a.hs, tm)
}

func (a *engineAPI) schedule(d float64, op bool, id uint64) {
	if op {
		a.issued(a.e.ScheduleOp(d, a.op, idArg(id)), id)
		return
	}
	a.issued(a.e.Schedule(d, func() { a.p.fire(id) }), id)
}

func (a *engineAPI) afterStep() {
	n, s := a.e.QueueLen(), a.e.Stats()
	want := int64(s.Scheduled) - int64(s.Executed) - int64(s.Canceled) - int64(a.inPlace)
	if int64(n) != want && a.bad == "" {
		a.bad = fmt.Sprintf("at t=%v, program byte %d: QueueLen is %d, and Scheduled %d − Executed %d − Canceled %d − %d re-arms in place is %d",
			a.e.Now(), a.p.pc, n, s.Scheduled, s.Executed, s.Canceled, a.inPlace, want)
	}
	a.maxLen = max(a.maxLen, n)
}

// pending reports whether tm's record is still pending under it:
// neither fired nor discarded, canceled or not.
func pending(tm Timer) bool { return tm.ev != nil && tm.ev.Seq == tm.seq }

func (a *engineAPI) cancel(h int) {
	if tm := a.hs[h]; pending(tm) && !tm.Canceled() {
		a.cancels++
	}
	a.hs[h].Cancel()
}

func (a *engineAPI) rearm(h int, d float64, id uint64) {
	tm, at := a.hs[h], a.e.Now()+d
	switch {
	case !pending(tm):
	case at > tm.Time() && at > a.e.Now():
		a.inPlace++
		if tm.Canceled() {
			a.cancels-- // revived: its tombstone is never discarded
		}
	case !tm.Canceled():
		a.cancels++ // the cancel a re-arm out of place makes
	}
	a.issued(a.e.RescheduleOp(tm, d, a.op, idArg(id)), id)
}

func (a *engineAPI) checkpoint() string {
	enc := checkpoint.NewEnc(nil)
	if err := a.e.AppendState(&enc); err != nil {
		return "refused"
	}
	if err := a.e.RestoreState(checkpoint.NewDec(enc.Bytes())); err != nil {
		return err.Error()
	}
	a.hs = a.hs[:0]
	return "ok"
}

// refEngine is the reference: pending events in a slice sorted by
// (time, seq), a cancel removes its event, a re-arm is a cancel then a
// schedule, and handlers run in slice order.
type refEngine struct {
	p                   *orderProgram
	t                   float64
	pending             []refEvent
	hs                  []uint64 // handle i names the event of seq hs[i]
	executed, scheduled uint64
	stopped             bool
}

type refEvent struct {
	t       float64
	seq     uint64
	closure bool
}

func (r *refEngine) now() float64 { return r.t }
func (r *refEngine) handles() int { return len(r.hs) }
func (r *refEngine) stop()        { r.stopped = true }
func (r *refEngine) afterStep()   {}
func (r *refEngine) counts() (uint64, uint64) {
	return r.executed, r.scheduled
}

func (r *refEngine) schedule(d float64, op bool, id uint64) {
	ev := refEvent{t: r.t + d, seq: id, closure: !op}
	i, _ := slices.BinarySearchFunc(r.pending, ev, func(a, b refEvent) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		return int(a.seq) - int(b.seq)
	})
	r.pending = slices.Insert(r.pending, i, ev)
	r.scheduled++
	r.hs = append(r.hs, id)
}

func (r *refEngine) cancel(h int) {
	if i := slices.IndexFunc(r.pending, func(ev refEvent) bool { return ev.seq == r.hs[h] }); i >= 0 {
		r.pending = slices.Delete(r.pending, i, i+1)
	}
}

func (r *refEngine) rearm(h int, d float64, id uint64) {
	r.cancel(h)
	r.schedule(d, true, id)
}

func (r *refEngine) step() {
	r.run(math.Inf(1), r.executed+1)
}

func (r *refEngine) runUntil(h float64) { r.run(h, math.MaxUint64) }

func (r *refEngine) run(horizon float64, last uint64) {
	r.stopped = false
	for !r.stopped && r.executed != last && len(r.pending) > 0 && r.pending[0].t <= horizon {
		ev := r.pending[0]
		r.pending = r.pending[1:]
		r.t = ev.t
		r.executed++
		r.p.fire(ev.seq)
	}
}

func (r *refEngine) peek() float64 {
	if len(r.pending) == 0 {
		return math.Inf(1)
	}
	return r.pending[0].t
}

func (r *refEngine) checkpoint() string {
	for _, ev := range r.pending {
		if ev.closure {
			return "refused"
		}
	}
	r.hs = r.hs[:0]
	return "ok"
}
