package des

import "fmt"

// Resource is a counted, FIFO-fair simulated resource (CPU slots, disk
// channels, tape drives, network tokens). Processes Acquire units and
// block when none are free; jobs written as ops use AcquireOp. Release
// hands freed units to both kinds of waiter in one arrival order.
type Resource struct {
	e        *Engine
	name     string
	capacity int
	inUse    int
	waiters  []resWaiter // waiters[head:] wait, in arrival order
	head     int

	// utilization accounting (time-weighted)
	lastChange float64
	busyArea   float64
}

type resWaiter struct {
	n   int
	op  Op
	arg []byte
}

// NewResource creates a resource with the given capacity (> 0).
func (e *Engine) NewResource(name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("des: NewResource %q with capacity %d", name, capacity))
	}
	return &Resource{e: e, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of requests waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.head }

func (r *Resource) account() {
	now := r.e.now
	r.busyArea += float64(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

// Utilization returns the time-averaged fraction of capacity in use
// since the start of the simulation.
func (r *Resource) Utilization() float64 {
	if r.e.now <= 0 {
		return 0
	}
	area := r.busyArea + float64(r.inUse)*(r.e.now-r.lastChange)
	return area / (float64(r.capacity) * r.e.now)
}

// Acquire blocks the process until n units are available, then takes
// them. It is the blocking form of AcquireOp.
func (r *Resource) Acquire(p *Process, n int) {
	p.Await(func(op Op, arg []byte) { r.AcquireOp(n, op, arg) })
}

// AcquireOp takes n units and continues with op(arg): Called at once
// when they are free and nobody waits, otherwise in a zero-delay event
// scheduled by the Release that grants them. Requests are served
// strictly FIFO (no overtaking, even when a smaller later request would
// fit). It panics if n exceeds capacity — such a request could never
// succeed.
func (r *Resource) AcquireOp(n int, op Op, arg []byte) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("des: Acquire(%d) on %q with capacity %d", n, r.name, r.capacity))
	}
	if r.QueueLen() == 0 && r.capacity-r.inUse >= n {
		r.account()
		r.inUse += n
		r.e.Call(op, arg)
		return
	}
	if r.head > 0 && len(r.waiters) == cap(r.waiters) {
		// Slide the queue to the front of its array rather than grow it.
		k := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[k:])
		r.waiters, r.head = r.waiters[:k], 0
	}
	r.waiters = append(r.waiters, resWaiter{n: n, op: op, arg: arg})
}

// Release returns n units and grants as many head-of-line waiters as
// now fit. It may be called from event handlers or process bodies.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("des: Release(%d) on %q with %d in use", n, r.name, r.inUse))
	}
	r.account()
	r.inUse -= n
	for r.QueueLen() > 0 {
		w := r.waiters[r.head]
		if r.capacity-r.inUse < w.n {
			break
		}
		r.waiters[r.head] = resWaiter{}
		r.head++
		if r.head == len(r.waiters) {
			r.waiters, r.head = r.waiters[:0], 0
		}
		r.account()
		r.inUse += w.n
		r.e.ScheduleOp(0, w.op, w.arg)
	}
}

// WaitGroup counts outstanding simulated activities; Wait blocks until
// the count returns to zero. The zero value is unusable — create with
// NewWaitGroup.
type WaitGroup struct {
	e       *Engine
	count   int
	waiters []resWaiter
}

// NewWaitGroup creates a wait group with count 0.
func (e *Engine) NewWaitGroup() *WaitGroup { return &WaitGroup{e: e} }

// Add increments (or with negative delta decrements) the counter.
// It panics if the counter goes negative. At zero it resumes every
// waiter in a zero-delay event of its own.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("des: WaitGroup counter went negative")
	}
	if wg.count == 0 {
		for i, w := range wg.waiters {
			wg.e.ScheduleOp(0, w.op, w.arg)
			wg.waiters[i] = resWaiter{}
		}
		wg.waiters = wg.waiters[:0]
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the current counter value.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait blocks the process until the counter is zero: a process resumed
// by a zero that an Add has since undone waits again.
func (wg *WaitGroup) Wait(p *Process) {
	for wg.count > 0 {
		p.Await(func(op Op, arg []byte) {
			wg.waiters = append(wg.waiters, resWaiter{op: op, arg: arg})
		})
	}
}
