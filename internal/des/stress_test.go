package des

import (
	"fmt"
	"testing"

	"repro/internal/eventq"
)

// TestStressMixedModelDeterminism runs a model that exercises every
// kernel feature at once — processes, hand-offs through Await on a
// registered op, resources, wait groups, cancellation — and demands
// bit-identical trajectories across all six FEL implementations.
func TestStressMixedModelDeterminism(t *testing.T) {
	run := func(kind eventq.Kind) (trace []float64, events uint64) {
		e := NewEngine(WithQueue(kind), WithSeed(77))
		src := e.Stream("stress")
		res := e.NewResource("pool", 3)
		wg := e.NewWaitGroup()
		record := func() { trace = append(trace, e.Now()) }

		// A work queue built on Await: producers append and resume the
		// longest-idle consumer at zero delay; a consumer that finds the
		// queue empty parks its resume op on the idle list.
		var work []int
		var idle []resWaiter
		phase := e.NewWaitGroup()
		phase.Add(1)
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("prod%d", i), func(p *Process) {
				for j := 0; j < 20; j++ {
					p.Hold(src.Exp(0.5))
					work = append(work, j)
					if len(idle) > 0 {
						e.ScheduleOp(0, idle[0].op, idle[0].arg)
						idle = idle[1:]
					}
					if j%7 == 0 && phase.Count() > 0 {
						phase.Done()
					}
				}
			})
		}
		// Consumers take work, contend for the pool, and wait on a
		// registered op for every other item.
		for i := 0; i < 6; i++ {
			wg.Add(1)
			e.Spawn(fmt.Sprintf("cons%d", i), func(p *Process) {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					for len(work) == 0 {
						p.Await(func(op Op, arg []byte) { idle = append(idle, resWaiter{op: op, arg: arg}) })
					}
					work = work[1:]
					res.Acquire(p, 1)
					p.Hold(src.Exp(2))
					res.Release(1)
					if j%2 == 1 {
						p.Await(func(op Op, arg []byte) { e.ScheduleOp(src.Exp(4), op, arg) })
					}
					record()
				}
			})
		}
		// A waiter blocks until the first phase, then on the wait group.
		e.Spawn("waiter", func(p *Process) {
			phase.Wait(p)
			record()
			wg.Wait(p)
			record()
		})
		// A watchdog resumes a sleeper from a closure event; a canceled
		// timer must not fire.
		e.Spawn("sleeper", func(p *Process) {
			p.Await(func(op Op, arg []byte) { e.Schedule(13, func() { e.Call(op, arg) }) })
			record()
		})
		dead := e.Schedule(5, func() { t.Error("canceled event fired") })
		dead.Cancel()

		e.Run()
		if e.LiveProcesses() != 0 {
			t.Fatalf("%s: leaked %d processes", kind, e.LiveProcesses())
		}
		return trace, e.Stats().Executed
	}
	refTrace, refEvents := run(eventq.KindHeap)
	if len(refTrace) < 60 {
		t.Fatalf("stress model too small: %d trace points", len(refTrace))
	}
	for _, k := range eventq.Kinds()[1:] {
		got, events := run(k)
		if events != refEvents {
			t.Fatalf("%s: %d events vs heap %d", k, events, refEvents)
		}
		if len(got) != len(refTrace) {
			t.Fatalf("%s: %d trace points vs %d", k, len(got), len(refTrace))
		}
		for i := range got {
			if got[i] != refTrace[i] {
				t.Fatalf("%s diverged at %d: %v vs %v", k, i, got[i], refTrace[i])
			}
		}
	}
}

// TestStressManyShortLivedProcesses churns through process creation
// and teardown to catch handover leaks.
func TestStressManyShortLivedProcesses(t *testing.T) {
	e := NewEngine(WithSeed(5))
	src := e.Stream("churn")
	const waves, perWave = 20, 250
	finished := 0
	var wave func(int)
	wave = func(w int) {
		if w >= waves {
			return
		}
		for i := 0; i < perWave; i++ {
			e.Spawn("ephemeral", func(p *Process) {
				p.Hold(src.Exp(10))
				finished++
			})
		}
		e.Schedule(1, func() { wave(w + 1) })
	}
	e.Schedule(0, func() { wave(0) })
	e.Run()
	if finished != waves*perWave {
		t.Fatalf("finished = %d", finished)
	}
	if e.LiveProcesses() != 0 {
		t.Fatalf("leaked %d", e.LiveProcesses())
	}
}
