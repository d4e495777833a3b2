// Package pool provides the persistent worker pool that both the
// shared-memory federation (internal/parsim) and the distributed
// worker's intra-node execution pool (internal/distsim) run lookahead
// windows on.
//
// The worker count is an upper bound, not a promise. A pool of more
// than one worker has two ways to execute a Run and measures which is
// faster instead of assuming that dispatch is:
//
//   - Inline: the caller runs every item itself, as worker 0. No
//     goroutine, channel, atomic or clock is touched; this is also all
//     a one-worker pool ever does.
//   - Dispatched: the caller publishes any shared state (e.g. the
//     window end), releases one token per worker through a shared
//     channel, the workers claim items off an atomic cursor, and a
//     counting barrier (one done-token per worker) closes the window.
//     The goroutines are started once and reused for every window:
//     rebuilding the execution contexts per window costs a pool
//     construction and teardown every lookahead interval, and with fine
//     lookaheads a simulation executes thousands of windows per second.
//
// Waking the workers and collecting their tokens costs microseconds,
// so a window holding less work than that runs faster inline, and no
// barrier can be cheap enough to change it: the cores themselves are
// hundreds of nanoseconds apart. Runs are therefore grouped in epochs.
// The first 2·trialRuns Runs of an epoch are trials, trialRuns inline
// and then trialRuns dispatched; the first of each block is left out
// (it pays the cold cache or the cold wake) and the others are timed
// around the Run; the rest of the epoch runs the mode whose fastest
// trial was faster. The fastest, not the sum: a Run that stalls once —
// on a first-touch page fault, which a fresh process takes on every
// page its heap grows into, or a preemption — costs more than a small
// window holds, and in a sum it would decide the epoch. An epoch is
// minEpoch Runs, doubles up to maxEpoch while the winner stays the same
// and falls back to minEpoch when it changes, so the losing mode's
// trials cost under 2 % of the Runs at first and under 0.2 % in the
// long run, and a workload that changes is followed within one epoch. Only trial Runs read the clock. A Run of at most
// one item is always inline. Results never depend on the mode, by the
// argument that makes them independent of the worker count: the items
// of one Run are independent.
//
// Memory ordering: each start-token send happens-before the matching
// receive, so anything the caller writes before Run is visible to every
// worker; each done-token send happens-before the matching receive, so
// anything a worker writes during the window is visible to the caller
// after Run returns. Callers therefore need no extra locking for state
// that is only touched outside windows or by a single worker within
// one. Per-worker state keyed by the body's worker index stays
// single-writer across mode switches: index 0 is the caller in an
// inline Run and one pool goroutine in a dispatched Run, and the tokens
// order the two.
package pool

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// mode is a way to execute one Run.
type mode uint8

const (
	measured   mode = iota // time both ways, run the faster one
	inline                 // on the caller's goroutine, as worker 0
	dispatched             // across the pool goroutines
	alternate              // inline and dispatched in turn (tests only)
)

const (
	trialRuns = 5    // timed Runs per mode at the head of an epoch
	minEpoch  = 256  // Runs per epoch, first and after the winner changes
	maxEpoch  = 4096 // cap for the doubling while the winner holds
)

// forced is the test hook that replaces the measured choice: New
// copies it into the pool. Tests of this package set it directly, tests
// of the packages built on the pool reach it through go:linkname.
var forced mode

// Stats counts how a pool executed its Runs.
type Stats struct {
	Inline     uint64 // Runs executed on the caller's goroutine
	Dispatched uint64 // Runs executed across the pool goroutines
	Flips      uint64 // epochs whose trials reversed the previous winner
}

// String renders the counters as one report line.
func (s Stats) String() string {
	return fmt.Sprintf("%d inline, %d dispatched, %d flips", s.Inline, s.Dispatched, s.Flips)
}

// Pool runs batches of independent items over a fixed set of
// persistent workers. A Pool with one worker executes Run inline on
// the caller's goroutine — no goroutines, channels, or atomics are
// touched — so a single-threaded caller pays nothing for the
// abstraction; a larger Pool does the same for every Run it has
// measured to be faster that way.
type Pool struct {
	workers int
	body    func(worker, item int)
	observe func(worker int, waitStart, busyStart, busyEnd int64)

	// The choice of mode; touched by the caller's goroutine only.
	force      mode
	winner     mode  // of the last trials; measured until the first ones end
	epoch      int   // length of the current epoch in Runs
	pos        int   // Runs into the current epoch
	inlineNs   int64 // wall time of this epoch's fastest inline trial Run
	dispatchNs int64 // and of its fastest dispatched one, the first of each left out
	stats      Stats

	// inlineEnd is when the last observed inline Run ended; published
	// to the pool goroutines by the start tokens like everything else.
	inlineEnd int64

	items  int           // published before tokens are released
	cursor atomic.Int64  // next item index to claim
	start  chan struct{} // one token per worker per Run; closed to stop
	done   chan struct{} // one token per worker per Run
	wg     sync.WaitGroup
	closed bool

	// Panic propagation: a body panic on a pool goroutine would kill
	// the whole process, whereas the same panic under inline execution
	// unwinds through Run to the caller. The first panicking worker
	// parks its value here (CAS elects the winner), the claim loops
	// drain without running further items, and Run re-panics on the
	// caller's goroutine after the barrier — same observable contract
	// as inline mode.
	aborted  atomic.Bool
	panicVal any
}

// New creates a pool of the given size. body is invoked as
// body(worker, item) for every item of every Run; for workers > 1 it
// must be safe to call concurrently for distinct items. Worker
// goroutines are started lazily on the first Run that is dispatched.
func New(workers int, body func(worker, item int)) *Pool {
	if workers < 1 || body == nil {
		panic(fmt.Sprintf("pool: New(workers=%d, body=%p)", workers, body))
	}
	return &Pool{workers: workers, body: body, force: forced, epoch: minEpoch,
		inlineNs: math.MaxInt64, dispatchNs: math.MaxInt64}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Stats returns how many Runs went each way so far. Must not be called
// while Run is executing.
func (p *Pool) Stats() Stats { return p.stats }

// SetObserve attaches a per-worker, per-Run phase hook:
// observe(worker, waitStart, busyStart, busyEnd), all obs.Now
// timestamps. The busy phase [busyStart, busyEnd) covers claiming and
// running items; the wait phase [waitStart, busyStart) is the
// synchronization barrier cost. What a Run reports depends on how it
// was executed:
//
//   - An inline Run has no barrier. The hook is called once, for
//     worker 0, with waitStart == busyStart.
//   - A dispatched Run calls it once per worker. A worker's wait phase
//     is the time it spent blocked before its start-token arrived,
//     counted from its previous done-token or from the end of the last
//     inline Run, whichever is later: a stretch of inline Runs, through
//     which the pool goroutines sleep, is nobody's barrier wait.
//
// The hook makes every Run read the clock; without one only trial Runs
// do. Must be called before the first Run.
func (p *Pool) SetObserve(fn func(worker int, waitStart, busyStart, busyEnd int64)) {
	if p.stats.Inline+p.stats.Dispatched > 0 {
		panic("pool: SetObserve after Run")
	}
	p.observe = fn
}

// Run executes body for every item in [0, items) and returns when all
// are done, inline or dispatched as the package comment describes.
// Dispatched items are claimed dynamically, so a worker stuck on an
// expensive item does not hold idle workers hostage. The item count
// may differ between Runs (e.g. after an LP migration). Run must not
// be called concurrently with itself or Close.
func (p *Pool) Run(items int) {
	if p.closed {
		panic("pool: Run after Close")
	}
	if p.workers == 1 || items <= 1 {
		p.runInline(items)
		return
	}
	m, best := p.next()
	if best == nil {
		p.run(m, items)
		return
	}
	t := obs.Now()
	p.run(m, items)
	*best = min(*best, obs.Now()-t)
}

// run executes the batch in the given mode, inline or dispatched.
func (p *Pool) run(m mode, items int) {
	if m == inline {
		p.runInline(items)
	} else {
		p.runDispatched(items)
	}
}

// next returns the mode of the next Run and, when that Run is a trial
// whose time counts, its mode's fastest trial so far, to be lowered.
func (p *Pool) next() (mode, *int64) {
	switch p.force {
	case inline, dispatched:
		return p.force, nil
	case alternate:
		if (p.stats.Inline+p.stats.Dispatched)%2 == 0 {
			return inline, nil
		}
		return dispatched, nil
	}
	pos := p.pos
	if p.pos++; p.pos == p.epoch {
		p.pos = 0
	}
	switch {
	case pos == 0:
		return inline, nil // discarded: it pays the cold cache
	case pos < trialRuns:
		return inline, &p.inlineNs
	case pos == trialRuns:
		return dispatched, nil // discarded: it pays the cold wake
	case pos < 2*trialRuns:
		return dispatched, &p.dispatchNs
	case pos == 2*trialRuns:
		p.endTrials()
	}
	return p.winner, nil
}

// endTrials picks the mode for the rest of the epoch from the trial
// times and sizes the epoch: dispatch has to be measurably faster to be
// chosen, a confirmed winner earns a longer epoch, a reversed one
// starts over.
func (p *Pool) endTrials() {
	w := inline
	if p.dispatchNs < p.inlineNs {
		w = dispatched
	}
	switch p.winner {
	case w:
		p.epoch = min(2*p.epoch, maxEpoch)
	case measured: // the first trials: nothing to confirm or reverse
	default:
		p.stats.Flips++
		p.epoch = minEpoch
	}
	p.winner = w
	p.inlineNs, p.dispatchNs = math.MaxInt64, math.MaxInt64
}

// runInline executes the batch on the caller's goroutine as worker 0.
func (p *Pool) runInline(items int) {
	p.stats.Inline++
	if p.observe == nil {
		for i := 0; i < items; i++ {
			p.body(0, i)
		}
		return
	}
	busyStart := obs.Now()
	for i := 0; i < items; i++ {
		p.body(0, i)
	}
	p.inlineEnd = obs.Now()
	p.observe(0, busyStart, busyStart, p.inlineEnd)
}

// runDispatched executes the batch across the pool goroutines,
// starting them if this is the first time.
func (p *Pool) runDispatched(items int) {
	p.stats.Dispatched++
	if p.start == nil {
		p.start = make(chan struct{})
		p.done = make(chan struct{})
		for w := 0; w < p.workers; w++ {
			w := w
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.workerLoop(w)
			}()
		}
	}
	p.items = items
	p.cursor.Store(0)
	// Release exactly one token per worker; each send happens-before
	// the matching receive, publishing items, the reset cursor, and any
	// caller state written before Run.
	for w := 0; w < p.workers; w++ {
		p.start <- struct{}{}
	}
	// Counting barrier: the batch is over when every worker reports.
	for w := 0; w < p.workers; w++ {
		<-p.done
	}
	if p.aborted.Load() {
		// Re-raise the body panic on the caller's goroutine, exactly
		// where inline execution would have raised it. The flag resets
		// so a caller that recovers can keep using the pool.
		r := p.panicVal
		p.panicVal = nil
		p.aborted.Store(false)
		panic(r)
	}
}

// runItem executes one body call, converting a panic into the abort
// flag Run re-raises. Returning normally (not re-panicking here) keeps
// the worker alive to reach the barrier, so Run never deadlocks.
func (p *Pool) runItem(w, i int) {
	defer func() {
		if r := recover(); r != nil {
			if p.aborted.CompareAndSwap(false, true) {
				// Only Run reads panicVal, after the done barrier — the
				// done-token send orders this write before that read.
				p.panicVal = r
			}
		}
	}()
	p.body(w, i)
}

// workerLoop is the body of one persistent worker: per dispatched Run
// it claims items off the shared cursor until none remain, then reports
// to the barrier. A closed start channel is the stop signal.
func (p *Pool) workerLoop(w int) {
	var waitStart int64
	if p.observe != nil {
		waitStart = obs.Now()
	}
	for range p.start {
		var busyStart int64
		if p.observe != nil {
			busyStart = obs.Now()
			waitStart = max(waitStart, p.inlineEnd)
		}
		for {
			i := int(p.cursor.Add(1)) - 1
			if i >= p.items || p.aborted.Load() {
				break
			}
			p.runItem(w, i)
		}
		if p.observe != nil {
			p.observe(w, waitStart, busyStart, obs.Now())
		}
		p.done <- struct{}{}
		if p.observe != nil {
			waitStart = obs.Now()
		}
	}
}

// Close stops and joins the worker goroutines. It is idempotent and
// safe on a pool whose workers were never started. The pool must not
// be used again after Close.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.start != nil {
		close(p.start) // stop signal: workers drain and exit
		p.wg.Wait()
		p.start, p.done = nil, nil
	}
}
