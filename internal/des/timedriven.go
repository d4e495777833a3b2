package des

import (
	"fmt"
	"math"
)

// TimeDriven is a time-driven (fixed-increment) DES executor over the
// same event schedule an Engine uses. It exists for the paper's
// efficiency comparison: a time-driven simulation "advances by fixed
// time increments and ... steps through regular time intervals when no
// event occurs", paying one tick of work per increment whether or not
// anything happens, and quantizing every event's firing time up to the
// enclosing tick boundary.
//
// TimeDriven wraps an Engine so models written against Engine run
// unmodified; only the executor differs.
type TimeDriven struct {
	*Engine
	dt    float64
	ticks uint64
}

// NewTimeDriven returns a time-driven executor with tick size dt over
// a fresh engine. It panics if dt <= 0.
func NewTimeDriven(dt float64, opts ...Option) *TimeDriven {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		panic(fmt.Sprintf("des: NewTimeDriven with invalid dt %v", dt))
	}
	return &TimeDriven{Engine: NewEngine(opts...), dt: dt}
}

// Ticks returns the number of clock increments performed so far,
// including empty ones — the quantity an event-driven engine never
// pays for.
func (td *TimeDriven) Ticks() uint64 { return td.ticks }

// RunUntil advances the clock in increments of dt up to horizon,
// executing at each tick every event due in the elapsed interval.
// Event handlers observe the tick time (quantized), which is exactly
// the accuracy loss the paper attributes to time-driven simulation.
func (td *TimeDriven) RunUntil(horizon float64) float64 {
	e := td.Engine
	if e.running {
		panic("des: RunUntil called reentrantly")
	}
	e.running = true
	defer e.stopRunning()
	e.stopped = false
	for !e.stopped && e.now < horizon {
		next := e.now + td.dt
		if next > horizon {
			next = horizon
		}
		td.ticks++
		// A Stop can leave records in the lane, which holds only the
		// current instant's: they go to the queue before the clock moves.
		for ev := e.lane; ev != nil; ev = e.lane {
			e.popLane()
			e.push(ev)
		}
		e.now = next
		// Drain every event due at or before the new tick time. Head
		// bounds them all, so an empty tick costs one compare.
		for !e.stopped && !(*e.head > e.now) {
			it, ok := e.front(e.now, true)
			if !ok {
				break
			}
			// Handlers observe the quantized tick time, and so does
			// the trace: spans carry e.now, not the original due time.
			e.exec(it, e.now)
		}
	}
	return e.now
}
