package resources

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
)

// refCPU is time-shared processor sharing as CPU did it before it kept
// one completion timer: every task owns a timer, and every arrival or
// finish cancels and reschedules all of them in arrival order. It is
// the reference CPU's completion times and order are compared against.
type refCPU struct {
	e          *des.Engine
	cores      int
	speed      float64
	tasks      []*refTask
	lastUpdate float64
}

type refTask struct {
	remaining, rate float64
	timer           des.Timer
	done            func()
}

func (c *refCPU) Execute(ops float64, done func()) {
	c.advance()
	c.tasks = append(c.tasks, &refTask{remaining: ops, done: done})
	c.rebalance()
}

func (c *refCPU) advance() {
	now := c.e.Now()
	if dt := now - c.lastUpdate; dt > 0 {
		for _, t := range c.tasks {
			t.remaining -= t.rate * dt
			if t.remaining < 0 {
				t.remaining = 0
			}
		}
	}
	c.lastUpdate = now
}

func (c *refCPU) rebalance() {
	n := len(c.tasks)
	if n == 0 {
		return
	}
	rate := float64(c.cores) * c.speed / float64(n)
	if rate > c.speed {
		rate = c.speed
	}
	for _, t := range c.tasks {
		t.timer.Cancel()
		t.rate = rate
		t := t
		t.timer = c.e.Schedule(t.remaining/rate, func() {
			c.advance()
			t.remaining = 0
			for i, u := range c.tasks {
				if u == t {
					c.tasks = append(c.tasks[:i], c.tasks[i+1:]...)
					break
				}
			}
			c.rebalance()
			t.done()
		})
	}
}

// TestTimeSharedMatchesPerTaskTimers runs seeded random arrival
// schedules (round sizes and instants, so ties are common; some tasks
// submitted from done callbacks) through CPU and the per-task-timer
// reference and requires every completion instant, the completion
// order and the executed-event count to match bit for bit.
func TestTimeSharedMatchesPerTaskTimers(t *testing.T) {
	type executor interface {
		Execute(ops float64, done func())
	}
	run := func(seed uint64, mk func(e *des.Engine, cores int, speed float64) executor) (ends []uint64, order []int, executed uint64) {
		src := rng.New(seed)
		e := des.NewEngine()
		cpu := mk(e, 1+src.Intn(4), []float64{100, 128, 333}[src.Intn(3)])
		var submit func(chain int)
		submit = func(chain int) {
			i := len(ends)
			ops := []float64{0, 1000, 1024, 4096}[src.Intn(4)]
			if src.Intn(3) == 0 {
				ops = src.Uniform(1, 1e4)
			}
			chained := chain > 0 && src.Intn(3) == 0
			ends = append(ends, 0)
			cpu.Execute(ops, func() {
				ends[i] = math.Float64bits(e.Now())
				order = append(order, i)
				e.Schedule(0, func() { order = append(order, -1-i) })
				if chained {
					submit(chain - 1)
				}
			})
		}
		for k := 1 + src.Intn(40); k > 0; k-- {
			at := []float64{0, 0, 1, 8}[src.Intn(4)]
			if src.Intn(3) == 0 {
				at = src.Uniform(0, 50)
			}
			e.At(at, func() { submit(2) })
		}
		e.Run()
		return ends, order, e.Stats().Executed
	}
	ties := 0
	for seed := uint64(1); seed <= 300; seed++ {
		ends, order, executed := run(seed, func(e *des.Engine, cores int, speed float64) executor {
			return NewCPU(e, "ts", cores, speed, TimeShared)
		})
		refEnds, refOrder, refExecuted := run(seed, func(e *des.Engine, cores int, speed float64) executor {
			return &refCPU{e: e, cores: cores, speed: speed}
		})
		if len(ends) != len(refEnds) || len(order) != len(refOrder) || executed != refExecuted {
			t.Fatalf("seed %d: %d tasks, %d completions, %d events; reference %d, %d, %d",
				seed, len(ends), len(order), executed, len(refEnds), len(refOrder), refExecuted)
		}
		for i := range refEnds {
			if ends[i] != refEnds[i] {
				t.Fatalf("seed %d task %d: ended %v, reference %v", seed, i,
					math.Float64frombits(ends[i]), math.Float64frombits(refEnds[i]))
			}
		}
		for i := range refOrder {
			if order[i] != refOrder[i] {
				t.Fatalf("seed %d: completion %d is %d, reference %d", seed, i, order[i], refOrder[i])
			}
			if i > 0 && order[i] >= 0 && order[i-1] >= 0 && ends[order[i]] == ends[order[i-1]] {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no scenario had two tasks complete back to back at one instant")
	}
}

// TestTimeSharedEventListCostIsLinearInTasks holds N tasks on one
// time-shared CPU: one timer re-armed per arrival and per finish, not
// one per task per change.
func TestTimeSharedEventListCostIsLinearInTasks(t *testing.T) {
	const n = 500
	e := des.NewEngine()
	cpu := NewCPU(e, "ts", 2, 100, TimeShared)
	for i := 0; i < n; i++ {
		cpu.Execute(float64(100*(i+1)), nil)
	}
	e.Run()
	if cpu.Completed() != n {
		t.Fatalf("%d of %d tasks completed", cpu.Completed(), n)
	}
	s := e.Stats()
	if s.Scheduled > 4*n+8 || s.MaxQueue > n+8 {
		t.Fatalf("%d tasks: %d scheduled (want <= %d), max queue %d (want <= %d)",
			n, s.Scheduled, 4*n+8, s.MaxQueue, n+8)
	}
}

// TestTimeSharedStaggeredArrivalsLeaveNoTombstones starts tasks one
// at a time on a busy one-core time-shared CPU while its first task
// still runs: each arrival lowers every task's rate, so it only pushes
// the next completion later, and the CPU moves its one timer's record
// in place instead of canceling it.
func TestTimeSharedStaggeredArrivalsLeaveNoTombstones(t *testing.T) {
	const n = 50
	e := des.NewEngine()
	cpu := NewCPU(e, "ts", 1, 100, TimeShared)
	cpu.Execute(100, nil) // alone, done at t=1
	for i := 1; i <= n; i++ {
		e.Schedule(float64(i)/200, func() { cpu.Execute(1e4, nil) })
	}
	e.Run()
	if cpu.Completed() != n+1 {
		t.Fatalf("%d of %d tasks completed", cpu.Completed(), n+1)
	}
	if s := e.Stats(); s.Canceled != 0 || s.MaxQueue > n+3 {
		t.Fatalf("%d tombstones discarded, want 0; max queue %d, want at most %d", s.Canceled, s.MaxQueue, n+3)
	}
}

// TestTimeSharedRebalanceDoesNotAllocate runs a steady-state
// finish/arrive cycle over N concurrent tasks: the earliest task
// completes, then arrives again as Execute would admit it. Nothing else
// in the cycle can allocate, so zero allocations means rebalance builds
// no closure and no label and the engine recycles the timer's record.
func TestTimeSharedRebalanceDoesNotAllocate(t *testing.T) {
	const n = 64
	e := des.NewEngine()
	cpu := NewCPU(e, "ts", 2, 100, TimeShared)
	for i := 0; i < n; i++ {
		cpu.Execute(float64(100*(i+1)), nil)
	}
	cycle := func() {
		task, completed := cpu.next, cpu.completed
		if !e.Step() || cpu.completed != completed+1 {
			t.Fatal("the earliest task did not complete")
		}
		cpu.advance()
		task.remaining = 100 * n
		cpu.tasks = append(cpu.tasks, task)
		cpu.rebalance()
	}
	for i := 0; i < 2*n; i++ { // past the tombstones admission left
		cycle()
	}
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Fatalf("%v allocations per finish/arrive cycle, want 0", a)
	}
	if len(cpu.tasks) != n || e.QueueLen() > 3 {
		t.Fatalf("%d tasks running, %d event-list entries; want %d and at most 3", len(cpu.tasks), e.QueueLen(), n)
	}
}
