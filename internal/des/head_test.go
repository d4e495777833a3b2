package des

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/eventq"
)

// first returns the earliest queued record without disturbing the
// queue: it drains and re-pushes, as AppendState does.
func first(e *Engine) (it eventq.Item, ok bool) {
	var items []eventq.Item
	for {
		x, more := e.queue.Pop()
		if !more {
			break
		}
		items = append(items, x)
	}
	for _, x := range items {
		e.queue.Push(x)
	}
	if len(items) == 0 {
		return it, false
	}
	return items[0], true
}

// TestHeadBoundsNextEvent is the property winsync's due list rests on.
// Over random interleavings of every schedule path, Cancel, RunUntil
// (whose handlers schedule, cancel and Stop), Step, PeekTime and
// Restore, Head never exceeds the earliest queued record, canceled or
// not, nor PeekTime's answer. After a RunUntil that was not stopped it
// is the first record's time when that record is live, and +Inf when
// nothing is queued. Odd seeds keep the bound in a slot of their own,
// moved every 25 steps as winsync.Group moves it: the move carries the
// bound over, and the slot left behind is written no more.
func TestHeadBoundsNextEvent(t *testing.T) {
	var exact, restores int
	for seed := uint64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		e := NewEngine(WithSeed(seed))
		var timers []Timer
		var snap []byte
		delay := func() float64 { return float64(r.IntN(8)) / 2 }
		var op Op
		var body func()
		schedule := func() {
			var tm Timer
			switch r.IntN(4) {
			case 0:
				tm = e.Schedule(delay(), body)
			case 1:
				tm = e.At(e.Now()+delay(), body)
			case 2:
				tm = e.ScheduleOp(delay(), op, nil)
			default:
				tm = e.AtOp(e.Now()+delay(), op, nil)
			}
			timers = append(timers, tm)
		}
		cancel := func() {
			if len(timers) > 0 {
				timers[r.IntN(len(timers))].Cancel()
			}
		}
		body = func() {
			if r.IntN(2) == 0 {
				schedule()
			}
			if r.IntN(4) == 0 {
				cancel()
			}
			if r.IntN(16) == 0 {
				e.Stop()
			}
		}
		op = e.RegisterOp("test.op", func([]byte) { body() })

		var left *float64  // the slot last moved away from
		var leftAt float64 // and the bound it held then
		for step := 0; step < 200; step++ {
			if seed%2 == 1 && step%25 == 0 {
				left, leftAt = e.head, e.Head()
				e.HeadSlot(new(float64))
				if e.Head() != leftAt {
					t.Fatalf("seed %d step %d: HeadSlot moved bound %v as %v", seed, step, leftAt, e.Head())
				}
			}
			action := r.IntN(8)
			switch action {
			case 0, 1:
				schedule()
			case 2:
				cancel()
			case 3:
				horizon := e.Now() + delay()
				e.RunUntil(horizon)
				if !e.stopped {
					it, ok := first(e)
					switch {
					case !ok && e.Head() != math.Inf(1):
						t.Fatalf("seed %d step %d: Head %v after RunUntil drained the queue", seed, step, e.Head())
					case ok && !it.Event.Canceled && e.Head() != it.Time:
						t.Fatalf("seed %d step %d: Head %v after RunUntil, first live event at %v", seed, step, e.Head(), it.Time)
					}
					exact++
				}
			case 4:
				e.Step()
			case 5:
				if pt := e.PeekTime(); !(e.Head() <= pt) {
					t.Fatalf("seed %d step %d: Head %v above PeekTime %v", seed, step, e.Head(), pt)
				}
			case 6:
				if b, err := snapshot(e); err == nil { // refused while a closure is live
					snap = b
				}
			case 7:
				if snap == nil {
					continue
				}
				if err := restore(e, snap); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				timers = timers[:0] // RestoreState invalidates every handle
				restores++
			}
			if left != nil && *left != leftAt {
				t.Fatalf("seed %d step %d: a slot left behind changed from %v to %v", seed, step, leftAt, *left)
			}
			if it, ok := first(e); ok && !(e.Head() <= it.Time) {
				t.Fatalf("seed %d step %d (action %d): Head %v above the first record at %v", seed, step, action, e.Head(), it.Time)
			}
		}
	}
	if exact == 0 || restores == 0 {
		t.Fatalf("vacuous: %d exact checks, %d restores", exact, restores)
	}
}
