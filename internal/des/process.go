package des

import (
	"encoding/binary"
	"fmt"
)

// Process is a simulated sequential activity — MONARC 2 calls these
// "active objects": threaded entities with their own program counter
// and stack that naturally express concurrently running programs,
// network transfers and stochastic arrival patterns.
//
// Each Process runs on its own goroutine, but the engine enforces a
// strict synchronous handover: at most one goroutine (either the
// engine loop or exactly one process) executes at any instant, so
// sequential simulations remain fully deterministic while models are
// written as straight-line code with Hold/Acquire blocking calls.
//
// That costs a goroutine, two channels and a handover per block.
// Models with many short-lived jobs (the MONARC tier model) keep each
// job as a record in a Table instead and write its steps as registered
// ops, over the op forms of the same primitives — AcquireOp, ScheduleOp
// for a hold — which continue the job in exactly the event where a
// blocked process would resume (see Await).
//
// All Process methods must be called from simulation context (from the
// process's own body, another process body, or an event handler) —
// never from outside Run.
type Process struct {
	e    *Engine
	name string

	// k is the engine's process ops and records, looked up at Spawn:
	// Hold is hot in process-heavy models, and PerEngine's map lookup
	// on every block would be on its steady-state path.
	k *awaits

	resume chan struct{}
	yield  chan struct{}

	state   procState
	started bool
	killed  bool

	body func(*Process)
}

type procState uint8

const (
	procNew procState = iota
	procRunning
	procBlocked
	procEnded
)

// errProcKilled is the sentinel panic value used to unwind a killed
// process's goroutine.
type procKilledSentinel struct{}

// procPanic carries a panic out of a process goroutine back onto the
// engine goroutine, preserving crash semantics for model bugs.
type procPanic struct{ value any }

// Spawn creates a process and schedules its first activation, the op
// des:start, at the current simulation time. The body runs as
// straight-line code using the blocking primitives (Hold,
// Resource.Acquire, WaitGroup.Wait, ...).
func (e *Engine) Spawn(name string, body func(*Process)) *Process {
	return e.SpawnAt(name, 0, body)
}

// SpawnAt is Spawn with a start delay.
func (e *Engine) SpawnAt(name string, delay float64, body func(*Process)) *Process {
	k := PerEngine(e, newAwaits)
	p := &Process{
		e:      e,
		name:   name,
		k:      k,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
		body:   body,
	}
	e.liveProcs++
	slot, arg := k.starts.Get()
	*slot = p
	e.ScheduleOp(delay, k.start, arg)
	return p
}

// LiveProcesses returns the number of processes that have been spawned
// and have not yet ended. A drained queue with live processes means
// the model deadlocked (every process blocked with nothing to resume it).
func (e *Engine) LiveProcesses() int { return e.liveProcs }

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Process) Engine() *Engine { return p.e }

// Now returns the current simulation time.
func (p *Process) Now() float64 { return p.e.now }

// Ended reports whether the process body has returned.
func (p *Process) Ended() bool { return p.state == procEnded }

// run is the goroutine body: it waits for the first handover, executes
// the model code, and performs the final handover back to the engine.
func (p *Process) run() {
	<-p.resume
	var crash any
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procKilledSentinel); !ok {
					crash = r
				}
			}
		}()
		p.body(p)
	}()
	p.state = procEnded
	p.e.liveProcs--
	if crash != nil {
		p.e.pendingPanic = &procPanic{value: crash}
	}
	p.yield <- struct{}{}
}

// resumeNow transfers control to the process until it blocks or ends.
// It must run on the engine goroutine (inside an event handler).
func (p *Process) resumeNow() {
	if p.state == procEnded {
		return
	}
	if !p.started {
		p.started = true
		go p.run()
	}
	p.state = procRunning
	p.resume <- struct{}{}
	<-p.yield
	if pp := p.e.pendingPanic; pp != nil {
		p.e.pendingPanic = nil
		panic(pp.value)
	}
}

// suspend parks the process goroutine and hands control back to the
// engine. It returns when some event calls resumeNow.
func (p *Process) suspend() {
	p.state = procBlocked
	p.yield <- struct{}{}
	<-p.resume
	if p.killed {
		panic(procKilledSentinel{})
	}
}

// Hold advances the process's local time by d: the process blocks and
// resumes d simulation-time units later. It is the blocking form of
// ScheduleOp.
func (p *Process) Hold(d float64) {
	p.Await(func(op Op, arg []byte) { p.e.ScheduleOp(d, op, arg) })
}

// Await blocks the process on an operation written in op form: start
// begins it, handing it the op and argument that resume the process,
// and the operation runs that op once, when it completes. It is the
// only place a process blocks: Hold, Resource.Acquire, WaitGroup.Wait
// and the resources', netsim's, replication's and scheduler's blocking
// calls are each written over their op form, so each primitive's logic
// exists once.
//
// The op Called before start returns means the operation completed
// synchronously and Await returns without blocking. The op run by a
// later event hands control to the process inside that event; it adds
// no event of its own, so a process and a continuation waiting on the
// same operation resume in the same event. Running the op again is a
// no-op, and so is running it after Kill.
func (p *Process) Await(start func(op Op, arg []byte)) {
	k := p.k
	w, idx := k.waits.Get()
	k.gen++
	w.p, w.gen = p, k.gen
	// The resume argument is the record's index and gen, in 8 bytes of
	// the Await's own, never rewritten: a resume op run again after the
	// Await returned names a gen no later user of the record has. One
	// 4 KiB chunk serves 512 Awaits.
	if len(k.args) < 8 {
		k.args = make([]byte, 4096)
	}
	arg := binary.LittleEndian.AppendUint32(append(k.args[:0:8], idx...), w.gen)
	k.args = k.args[8:]
	start(k.resume, arg)
	for !w.done {
		p.suspend()
	}
	k.waits.Put(idx)
}

// awaits is the engine's start and resume ops, the processes whose
// start is pending and the records of the Awaits in progress. The
// record of a killed process's Await is never freed: the operation may
// still complete.
type awaits struct {
	starts Table[*Process]
	waits  Table[await]
	start  Op
	resume Op
	gen    uint32 // the number of the engine's latest Await
	args   []byte // the chunk resume arguments are cut from
}

type await struct {
	p    *Process
	gen  uint32 // the Await's number
	done bool
}

func newAwaits(e *Engine) *awaits {
	k := &awaits{}
	k.resume = e.RegisterOp("des:resume", func(arg []byte) {
		w := k.waits.At(arg)
		if w.p == nil || w.done || w.gen != binary.LittleEndian.Uint32(arg[4:]) {
			return
		}
		w.done = true
		if w.p.state == procBlocked {
			w.p.resumeNow()
		}
	})
	// A process killed before its start is ended: resumeNow ignores it.
	k.start = e.RegisterOp("des:start", func(arg []byte) {
		p := *k.starts.At(arg)
		k.starts.Put(arg)
		p.resumeNow()
	})
	e.ops[k.resume.idx].proc, e.ops[k.start.idx].proc = true, true
	return k
}

// Kill terminates a blocked process: its goroutine unwinds (running
// deferred functions) and the process ends without resuming model
// code. Killing an ended process is a no-op; killing a running process
// (i.e. the caller itself) panics, because a process cannot unwind a
// peer that currently holds control.
func (p *Process) Kill() {
	switch p.state {
	case procEnded:
		return
	case procRunning:
		panic(fmt.Sprintf("des: Kill of running process %q", p.name))
	case procNew:
		// Never started: mark ended so the start event is ignored.
		p.state = procEnded
		p.e.liveProcs--
		return
	}
	p.killed = true
	p.resumeNow()
}
