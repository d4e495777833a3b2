package des

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// TestStressMixedModelDeterminism runs a model that exercises every
// kernel feature at once — processes, hand-offs through Await on a
// registered op, resources, wait groups, cancellation — and demands
// the trajectory, bit for bit, that all six queue kinds gave when the
// engine could run on each.
func TestStressMixedModelDeterminism(t *testing.T) {
	run := func() (trace []float64, events uint64) {
		e := NewEngine(WithSeed(77))
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
			t.Fatalf("leaked %d processes", e.LiveProcesses())
		}
		return trace, e.Stats().Executed
	}
	trace, events := run()
	h := fnv.New64a()
	for _, x := range trace {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
	}
	const wantPoints, wantEvents, wantHash = 63, 253, 0xb87210889666ff1c
	if len(trace) != wantPoints || events != wantEvents || h.Sum64() != wantHash {
		t.Fatalf("%d trace points, %d events, trace hash %#x; want %d, %d, %#x",
			len(trace), events, h.Sum64(), wantPoints, wantEvents, uint64(wantHash))
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
