package pool

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// underEveryMode runs fn as a subtest with the choice of mode left to
// the trials and then forced each way, so a contract is checked for
// inline Runs, dispatched Runs and a switch between any two Runs.
func underEveryMode(t *testing.T, fn func(t *testing.T)) {
	defer func() { forced = measured }()
	for _, m := range []mode{measured, inline, dispatched, alternate} {
		forced = m
		t.Run(fmt.Sprintf("mode=%d", m), fn)
	}
}

// TestRunCoversEveryItemOnce pins the claim protocol: across many
// reused-pool Runs, every item index is executed exactly once per Run,
// for pool sizes spanning inline, fewer-workers-than-items, and
// more-workers-than-nonzero-items shapes.
func TestRunCoversEveryItemOnce(t *testing.T) {
	underEveryMode(t, func(t *testing.T) {
		for _, workers := range []int{1, 2, 3, 8} {
			var hits [17]atomic.Int64
			p := New(workers, func(_, item int) { hits[item].Add(1) })
			defer p.Close()
			const runs = 50
			for r := 0; r < runs; r++ {
				p.Run(len(hits))
			}
			for i := range hits {
				if got := hits[i].Load(); got != runs {
					t.Fatalf("workers=%d item %d executed %d times, want %d", workers, i, got, runs)
				}
			}
		}
	})
}

// TestItemCountMayChangeBetweenRuns models LP migration: the batch
// size shrinks and grows across Runs of one persistent pool.
func TestItemCountMayChangeBetweenRuns(t *testing.T) {
	var total atomic.Int64
	p := New(4, func(_, item int) { total.Add(int64(item) + 1) })
	defer p.Close()
	want := int64(0)
	for _, n := range []int{6, 2, 0, 9, 1} {
		p.Run(n)
		want += int64(n*(n+1)) / 2
	}
	if got := total.Load(); got != want {
		t.Fatalf("sum over runs = %d, want %d", got, want)
	}
}

// TestWorkerIndexInRange checks that the worker index passed to body
// identifies one of the pool's workers — callers key per-worker
// single-writer state (recorders, histograms) off it.
func TestWorkerIndexInRange(t *testing.T) {
	const workers = 3
	var bad atomic.Int64
	p := New(workers, func(w, _ int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	defer p.Close()
	for r := 0; r < 20; r++ {
		p.Run(10)
	}
	if bad.Load() != 0 {
		t.Fatalf("body saw %d out-of-range worker indices", bad.Load())
	}
}

// TestObservePhases checks what the hook reports under every mode: an
// inline Run fires it once, for worker 0, with no wait phase; a
// dispatched Run fires it once per worker with ordered timestamps and a
// wait phase that starts no earlier than the end of the last inline
// Run, so no barrier wait swallows a stretch of inline Runs.
func TestObservePhases(t *testing.T) {
	underEveryMode(t, func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			var calls, bad, inlineEnd atomic.Int64
			p := New(workers, func(_, _ int) {})
			p.SetObserve(func(w int, waitStart, busyStart, busyEnd int64) {
				calls.Add(1)
				if waitStart > busyStart || busyStart > busyEnd {
					bad.Add(1)
				}
				if waitStart == busyStart { // an inline Run
					if w != 0 {
						bad.Add(1)
					}
					inlineEnd.Store(busyEnd)
				} else if waitStart < inlineEnd.Load() {
					bad.Add(1)
				}
			})
			const runs = 4 * trialRuns
			for r := 0; r < runs; r++ {
				p.Run(5)
				// Keep every dispatched wait phase longer than the
				// clock's resolution: an empty one reads as inline above.
				time.Sleep(10 * time.Microsecond)
			}
			p.Close()
			st := p.Stats()
			if st.Inline+st.Dispatched != runs {
				t.Fatalf("workers=%d stats %+v, want %d Runs", workers, st, runs)
			}
			if want := int64(st.Inline) + int64(workers)*int64(st.Dispatched); calls.Load() != want {
				t.Fatalf("workers=%d observe called %d times for %+v, want %d", workers, calls.Load(), st, want)
			}
			if bad.Load() != 0 {
				t.Fatalf("workers=%d observe saw %d bad phase reports", workers, bad.Load())
			}
		}
	})
}

// TestCallerStatePublishedToWorkers pins the memory-ordering contract:
// plain (non-atomic) caller state written before Run is visible to
// every worker, and plain per-item results written by workers are
// visible to the caller after Run. Run under -race this is the proof
// the token barrier provides the needed happens-before edges, also
// between an inline Run and a dispatched one.
func TestCallerStatePublishedToWorkers(t *testing.T) {
	underEveryMode(t, func(t *testing.T) {
		var windowEnd float64 // plain field, as callers use it
		results := make([]float64, 32)
		p := New(4, func(_, item int) { results[item] = windowEnd })
		defer p.Close()
		for r := 1; r <= 4*trialRuns; r++ {
			windowEnd = float64(r) * 0.5
			p.Run(len(results))
			for i, got := range results {
				if got != windowEnd {
					t.Fatalf("run %d: item %d saw windowEnd %v, want %v", r, i, got, windowEnd)
				}
			}
		}
	})
}

// TestCloseIdempotentAndLazy: Close before any Run (no goroutines
// started), double Close, and Close after Runs all succeed.
func TestCloseIdempotentAndLazy(t *testing.T) {
	p := New(4, func(_, _ int) {})
	p.Close()
	p.Close()

	q := New(4, func(_, _ int) {})
	q.Run(3)
	q.Close()
	q.Close()
}

// TestBodyPanicPropagates pins the inline/pooled panic contract: a
// body panic surfaces as a Run panic with the original value on the
// caller's goroutine (never a process-killing goroutine crash), and a
// caller that recovers can keep using the pool.
func TestBodyPanicPropagates(t *testing.T) {
	underEveryMode(t, func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			boom := false
			p := New(workers, func(_, item int) {
				if boom && item == 3 {
					panic("test: body exploded")
				}
			})
			// Every third Run panics: with the trial blocks and the
			// alternation that is inline Runs and dispatched ones.
			for r := 0; r < 4*trialRuns; r++ {
				boom = r%3 == 1
				got := func() (v any) {
					defer func() { v = recover() }()
					p.Run(8)
					return nil
				}()
				if boom && got != "test: body exploded" {
					t.Fatalf("workers=%d run %d: recovered %v, want the body's panic value", workers, r, got)
				}
				if !boom && got != nil {
					t.Fatalf("workers=%d run %d: unexpected panic %v", workers, r, got)
				}
			}
			p.Close()
		}
	})
}

// TestZeroAllocSteadyState pins that a warmed-up pool's Run performs
// no allocations: token sends, the cursor, the barrier and the trial
// bookkeeping are all allocation-free, so per-window cost is bounded by
// channel ops alone.
func TestZeroAllocSteadyState(t *testing.T) {
	underEveryMode(t, func(t *testing.T) {
		var sink atomic.Int64
		p := New(4, func(_, item int) { sink.Add(int64(item)) })
		defer p.Close()
		for r := 0; r < 2*trialRuns; r++ {
			p.Run(8) // warm up: the first dispatched Run spawns the workers
		}
		allocs := testing.AllocsPerRun(2*minEpoch, func() { p.Run(8) })
		if allocs != 0 {
			t.Fatalf("steady-state Run allocates %v per op, want 0", allocs)
		}
	})
}

// TestTinyRunsStayInline: a Run of no item or one item has nothing to
// share out and wakes nobody, whatever the mode.
func TestTinyRunsStayInline(t *testing.T) {
	underEveryMode(t, func(t *testing.T) {
		p := New(4, func(_, _ int) {})
		defer p.Close()
		const runs = 4 * trialRuns
		for r := 0; r < runs; r++ {
			p.Run(r % 2)
		}
		if st := p.Stats(); st.Dispatched != 0 || st.Inline != runs || p.start != nil {
			t.Fatalf("stats %+v, workers started: %v", st, p.start != nil)
		}
	})
}

// sleepy is a body whose items wait instead of compute, so that they
// overlap across workers even on a single CPU.
func sleepy(_, _ int) { time.Sleep(200 * time.Microsecond) }

// TestCheapRunsGoInline: when a Run holds less work than waking the
// workers costs, the trials keep the pool inline.
func TestCheapRunsGoInline(t *testing.T) {
	p := New(4, func(_, _ int) {})
	defer p.Close()
	const runs = 10000
	for r := 0; r < runs; r++ {
		p.Run(8)
	}
	if st := p.Stats(); st.Inline < runs*9/10 {
		t.Fatalf("no-op bodies: %+v, want at least 90%% of %d Runs inline", st, runs)
	}
}

// TestHeavyRunsGoDispatched: when the items are worth sharing out, the
// trials keep the pool dispatched.
func TestHeavyRunsGoDispatched(t *testing.T) {
	p := New(4, sleepy)
	defer p.Close()
	const runs = 100
	for r := 0; r < runs; r++ {
		p.Run(8)
	}
	if st := p.Stats(); st.Dispatched < runs*9/10 {
		t.Fatalf("sleeping bodies: %+v, want at least 90%% of %d Runs dispatched", st, runs)
	}
}

// TestModeFollowsWorkload changes the body from heavy to cheap in the
// middle of a pool's life: the next epoch's trials reverse the choice,
// which counts as one flip and brings the grown epoch back to its
// minimum.
func TestModeFollowsWorkload(t *testing.T) {
	body := sleepy
	p := New(4, func(w, i int) { body(w, i) })
	defer p.Close()
	// runEpoch runs through the trials of a new epoch and the first Run
	// after them, which acts on their result, and then through the rest.
	runEpoch := func(check func()) {
		for r := 0; r <= 2*trialRuns; r++ {
			p.Run(8)
		}
		check()
		for p.pos != 0 {
			p.Run(8)
		}
	}
	runEpoch(func() {})
	runEpoch(func() {
		if p.winner != dispatched || p.epoch != 2*minEpoch || p.stats.Flips != 0 {
			t.Fatalf("heavy phase: winner %d, epoch %d, stats %+v", p.winner, p.epoch, p.stats)
		}
		body = func(_, _ int) {} // the rest of this epoch keeps the old choice
	})
	before := p.Stats()
	runEpoch(func() {
		if p.winner != inline || p.epoch != minEpoch || p.stats.Flips != 1 {
			t.Fatalf("cheap phase: winner %d, epoch %d, stats %+v", p.winner, p.epoch, p.stats)
		}
	})
	after := p.Stats()
	if after.Dispatched-before.Dispatched != trialRuns || after.Inline-before.Inline != minEpoch-trialRuns {
		t.Fatalf("the epoch after the change ran %+v on top of %+v, want only its %d trials dispatched", after, before, trialRuns)
	}
}

// TestOneStallDoesNotDecide: a trial Run that stalls once — a fresh
// process takes a first-touch page fault on every page its heap grows
// into — says nothing about its mode. The second inline trial of the
// first epoch sleeps a millisecond and every other Run is cheap, so
// the pool stays inline; a sum of the trial times would dispatch the
// rest of the epoch.
func TestOneStallDoesNotDecide(t *testing.T) {
	run := 0
	p := New(4, func(_, item int) {
		if run == 2 && item == 0 {
			time.Sleep(time.Millisecond)
		}
	})
	defer p.Close()
	for ; run < minEpoch; run++ {
		p.Run(8)
	}
	if st := p.Stats(); st.Dispatched != trialRuns {
		t.Fatalf("one stalled inline trial: %+v, want only the %d dispatched trials", st, trialRuns)
	}
}
