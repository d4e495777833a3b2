// Package resources implements the host substrate of the framework:
// processing nodes (time-shared and space-shared CPUs), disk and mass
// storage, and database servers.
//
// These are the "host characteristics" of the reproduced paper's
// taxonomy: "such hosts may contain computing, data storage, and other
// resources, grouped into single or distributed systems", including
// "how different simulators model the load of the computing nodes, the
// granularity of jobs being processed, or the types of data storage
// facilities". GridSim's time-shared versus space-shared machine
// distinction is reproduced directly by the two CPU modes.
package resources

import (
	"fmt"
	"math"

	"repro/internal/des"
)

// SharingMode selects how a CPU multiplexes tasks over cores.
type SharingMode int

const (
	// SpaceShared machines give each task a dedicated core; tasks
	// queue FCFS when all cores are busy (cluster/batch semantics).
	SpaceShared SharingMode = iota
	// TimeShared machines run all tasks concurrently, dividing
	// aggregate capacity equally, with no task exceeding one core
	// (interactive/PC semantics; processor sharing).
	TimeShared
)

// String returns the mode name.
func (m SharingMode) String() string {
	switch m {
	case SpaceShared:
		return "space-shared"
	case TimeShared:
		return "time-shared"
	default:
		return fmt.Sprintf("SharingMode(%d)", int(m))
	}
}

// CPU is a processing element executing compute demands measured in
// abstract operations (normalized MIPS-seconds): a task of W ops on an
// otherwise idle core of speed S finishes in W/S seconds.
type CPU struct {
	e     *des.Engine
	k     *kind
	self  []byte // the CPU's op argument: the time-shared timer's
	name  string
	cores int
	speed float64 // ops per second per core
	mode  SharingMode

	// space-shared state
	slots *des.Resource

	// time-shared state: processor sharing, rebalanced on task
	// arrival/finish exactly like network flows, with one pending
	// completion timer for the task that finishes first.
	tasks      []*cpuTask // running tasks, in arrival order
	lastUpdate float64
	next       *cpuTask  // task the pending timer is for
	timer      des.Timer // its completion, if a task is running

	// accounting
	completed uint64
	busyArea  float64 // core-seconds of work performed
}

// cpuTask is one task: a space-shared one is a record in the engine's
// task table, a time-shared one sits in its CPU's tasks.
type cpuTask struct {
	c         *CPU
	ops       float64 // space-shared: the demand
	remaining float64 // time-shared: the ops left
	rate      float64 // time-shared: the rate they drain at
	done      func()  // Execute's callback, run in the event that ends the task
	then      des.Op  // RunOp's continuation, run one event later
	arg       []byte
}

// kind is the package's state on one engine: the ops that step every
// disk, database and CPU job on it, and the jobs' free lists.
type kind struct {
	e     *des.Engine
	io    des.Table[ioJob]
	query des.Table[queryJob]
	tasks des.Table[cpuTask]
	cpus  des.Table[*CPU]

	ioGranted, ioEnded                   des.Op
	queryGranted, queryServed, queryRead des.Op
	taskStarted, taskGranted, taskEnded  des.Op
	timerFired                           des.Op
}

func newKind(e *des.Engine) *kind {
	k := &kind{e: e}
	k.ioGranted = e.RegisterOp("disk:hold", k.grantIO)
	k.ioEnded = e.RegisterOp("disk:done", k.endIO)
	k.queryGranted = e.RegisterOp("db:hold", k.grantQuery)
	k.queryServed = e.RegisterOp("db:read", k.serveQuery)
	k.queryRead = e.RegisterOp("db:done", k.endQuery)
	k.taskStarted = e.RegisterOp("cpu:start", k.startTask)
	k.taskGranted = e.RegisterOp("cpu:hold", k.grantTask)
	k.taskEnded = e.RegisterOp("cpu:taskend", k.endTask)
	k.timerFired = e.RegisterOp("cpu:timer", func(self []byte) { (*k.cpus.At(self)).completeNext() })
	return k
}

// NewCPU creates a processing element.
func NewCPU(e *des.Engine, name string, cores int, opsPerSec float64, mode SharingMode) *CPU {
	if cores <= 0 || opsPerSec <= 0 {
		panic(fmt.Sprintf("resources: NewCPU(%q, cores=%d, speed=%v)", name, cores, opsPerSec))
	}
	c := &CPU{e: e, k: des.PerEngine(e, newKind), name: name, cores: cores, speed: opsPerSec, mode: mode}
	switch mode {
	case SpaceShared:
		c.slots = e.NewResource(name+":cores", cores)
	case TimeShared:
		var p **CPU
		p, c.self = c.k.cpus.Get()
		*p = c
	}
	return c
}

// Name returns the CPU name.
func (c *CPU) Name() string { return c.name }

// Cores returns the core count.
func (c *CPU) Cores() int { return c.cores }

// Speed returns per-core speed in ops/second.
func (c *CPU) Speed() float64 { return c.speed }

// Mode returns the sharing mode.
func (c *CPU) Mode() SharingMode { return c.mode }

// Completed returns the number of finished tasks.
func (c *CPU) Completed() uint64 { return c.completed }

// Load returns the number of tasks currently executing (time-shared)
// or executing+queued (space-shared).
func (c *CPU) Load() int {
	if c.mode == SpaceShared {
		return c.slots.InUse() + c.slots.QueueLen()
	}
	return len(c.tasks)
}

// Utilization returns the time-averaged fraction of total core
// capacity spent doing work since time 0.
func (c *CPU) Utilization() float64 {
	if c.mode == SpaceShared {
		return c.slots.Utilization()
	}
	now := c.e.Now()
	if now <= 0 {
		return 0
	}
	// busyArea is charged on every rebalance; charge the tail segment.
	area := c.busyArea
	dt := now - c.lastUpdate
	for _, t := range c.tasks {
		area += t.rate / c.speed * dt
	}
	return area / (float64(c.cores) * now)
}

// Execute runs a compute demand of ops operations, invoking done in
// the event that completes it; ops must be finite and non-negative.
// RunOp and Run add the hop a process pays to resume.
func (c *CPU) Execute(ops float64, done func()) { c.execute(ops, done, des.Op{}, nil) }

// Run blocks the calling process for the task's duration.
func (c *CPU) Run(p *des.Process, ops float64) {
	p.Await(func(op des.Op, arg []byte) { c.RunOp(ops, op, arg) })
}

// RunOp is the op form of Run: op(arg) runs in a zero-delay event after
// the task completes, where a process blocked in Run would resume.
func (c *CPU) RunOp(ops float64, op des.Op, arg []byte) { c.execute(ops, nil, op, arg) }

func (c *CPU) execute(ops float64, done func(), then des.Op, arg []byte) {
	if !(ops >= 0) || math.IsInf(ops, 1) {
		panic(fmt.Sprintf("resources: Execute(%v ops)", ops))
	}
	switch c.mode {
	case SpaceShared:
		// The task starts in its own event, then queues FCFS on the
		// core slots and holds one for ops/speed.
		t, self := c.k.tasks.Get()
		*t = cpuTask{c: c, ops: ops, done: done, then: then, arg: arg}
		c.e.ScheduleOp(0, c.k.taskStarted, self)
	case TimeShared:
		c.advance()
		c.tasks = append(c.tasks, &cpuTask{remaining: ops, done: done, then: then, arg: arg})
		c.rebalance()
	}
}

func (k *kind) startTask(self []byte) { k.tasks.At(self).c.slots.AcquireOp(1, k.taskGranted, self) }

func (k *kind) grantTask(self []byte) {
	t := k.tasks.At(self)
	k.e.ScheduleOp(t.ops/t.c.speed, k.taskEnded, self)
}

func (k *kind) endTask(self []byte) {
	t := k.tasks.At(self)
	c, done, then, arg := t.c, t.done, t.then, t.arg
	c.slots.Release(1)
	k.tasks.Put(self)
	c.finish(done, then, arg)
}

// finish counts a completed task and continues its job: Execute's done
// at once, RunOp's op one event later.
func (c *CPU) finish(done func(), then des.Op, arg []byte) {
	c.completed++
	switch {
	case done != nil:
		done()
	case then != des.Op{}:
		c.e.ScheduleOp(0, then, arg)
	}
}

// advance charges running time-shared tasks for elapsed progress.
func (c *CPU) advance() {
	now := c.e.Now()
	dt := now - c.lastUpdate
	if dt > 0 {
		for _, t := range c.tasks {
			t.remaining -= t.rate * dt
			if t.remaining < 0 {
				t.remaining = 0
			}
			c.busyArea += t.rate / c.speed * dt
		}
	}
	c.lastUpdate = now
}

// rebalance recomputes processor-sharing rates: total capacity
// cores*speed divided equally, capped at one core per task. It then
// re-arms the one timer for the earliest completion instant, computed
// as the engine will (now + remaining/rate); strict < scanning in
// arrival order lets the earliest arrival of a tie finish first. The
// re-arm is des.Engine.RescheduleOp: an arrival that only pushes the
// next completion later moves the timer's record in place, leaving no
// tombstone in the event list.
func (c *CPU) rebalance() {
	n := len(c.tasks)
	if n == 0 {
		c.timer.Cancel()
		return
	}
	rate := float64(c.cores) * c.speed / float64(n)
	if rate > c.speed {
		rate = c.speed
	}
	now, bestAt := c.e.Now(), 0.0
	for i, t := range c.tasks {
		t.rate = rate
		if at := now + t.remaining/rate; i == 0 || at < bestAt {
			c.next, bestAt = t, at
		}
	}
	c.timer = c.e.RescheduleOp(c.timer, c.next.remaining/rate, c.k.timerFired, c.self)
}

// completeNext is the completion timer's callback. The timer for the
// remaining tasks is re-armed before the finished task's done runs.
func (c *CPU) completeNext() {
	t := c.next
	c.advance()
	t.remaining = 0
	for i, u := range c.tasks {
		if u == t {
			c.tasks = append(c.tasks[:i], c.tasks[i+1:]...)
			break
		}
	}
	c.rebalance()
	c.finish(t.done, t.then, t.arg)
}
