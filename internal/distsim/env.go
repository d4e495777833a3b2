package distsim

import (
	"net"
	"time"
)

// Every wait distsim makes, in one table. From the config frame on, a
// wait is the run's Timeout — Coordinator.Timeout, which the config
// frame carries to the workers — times a constant; before it a worker
// knows no Timeout and waits a fixed constant. Timeout is always
// positive, so every one of these waits ends.
//
//	wait                               side         length                         default
//	frame read, frame write            both         Timeout                        30 s
//	heartbeat spacing                  worker       Timeout / beatsPerTimeout      10 s
//	stalled-worker verdict             coordinator  staleBeats stale beats         3 beats
//	liveness probe of a seated conn    coordinator  deadProbe                      1 ms
//	resume window of a broken seat     coordinator  min(Timeout, resumeWindow)     2 s
//	heals between two barriers         coordinator  resumesPerBarrier              64
//	readopt after a coord-hello        coordinator  resume window / helloTries     500 ms
//	replacement for a dead worker      coordinator  Timeout                        30 s
//	config after register              worker       connectWait                    10 s
//	coord-hello after a hello          worker       resume window / helloTries     500 ms
//	bye after the stats                worker       Timeout / beatsPerTimeout      10 s
//	attempts of the first connect      worker       connectAttempts, first at once 8
//	pause before connect retry a ≥ 0   worker       backoffBase·2^a + 0–25 %,      50 ms …
//	                                                at most backoffCap             5 s
//	attempts after a broken connection worker       connectAttempts +              8 + 256
//	                                                Worker.MaxPark, first at once
//	pause before reconnect retry a     worker       pause before connect retry     50 ms …
//	                                                a-1, at most the hello wait    500 ms
const (
	beatsPerTimeout   = 3
	staleBeats        = 3
	deadProbe         = time.Millisecond
	resumeWindow      = 2 * time.Second
	helloTries        = 4
	resumesPerBarrier = 64
	connectWait       = 10 * time.Second
	connectAttempts   = 8
	backoffBase       = 50 * time.Millisecond
	backoffCap        = 5 * time.Second
)

// DefaultTimeout is the per-frame receive deadline the coordinator
// applies when Coordinator.Timeout is zero. A worker that sends neither
// a frame nor a heartbeat for this long is declared dead.
const DefaultTimeout = 30 * time.Second

// DefaultMaxPark is how many reconnect attempts past connectAttempts a
// worker makes after a broken connection, waiting for a crashed
// coordinator to restart (Worker.MaxPark zero means this default):
// about two minutes of retries half a second apart.
const DefaultMaxPark = 256

// env is where distsim gets time from: the clock, a pause, the
// heartbeat tick, and — through the clock — the deadlines armed on a
// conn or on the listener. wallClock below is the real one, and this
// file is distsim's one user of the time package's clock or of a
// Set*Deadline method (TestDeterminismGuards' wall-clock rule). Tests
// run whole clusters on a scripted env whose clock jumps when every
// goroutine of the run waits. A nil env means wallClock.
type env interface {
	now() time.Time
	sleep(d time.Duration)
	// every calls f at once and then every d, on a goroutine of its own,
	// until f returns false or stop is called; stop waits for that
	// goroutine to return.
	every(d time.Duration, f func() bool) (stop func())
}

// wallClock is the operating system's clock.
type wallClock struct{}

func (wallClock) now() time.Time        { return time.Now() }
func (wallClock) sleep(d time.Duration) { time.Sleep(d) }

func (wallClock) every(d time.Duration, f func() bool) func() {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		if !f() {
			return
		}
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if !f() {
					return
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// resumeWait is the resume window of a run whose Timeout is timeout:
// how long the coordinator holds a broken seat open, and — divided by
// helloTries — how long each side waits for the other's step of the
// re-adoption handshake, so that a frame of it lost on the wire costs
// one of several tries rather than the seat.
func resumeWait(timeout time.Duration) time.Duration { return min(timeout, resumeWindow) }

// retryPause is the pause before reconnect attempt a ≥ 1: the connect
// backoff, at most a hello's wait, so a try — pause and hello — takes
// at most half the resume window at every attempt of the budget.
func retryPause(bo *backoff, a int, timeout time.Duration) time.Duration {
	return min(bo.delay(a-1), resumeWait(timeout)/helloTries)
}

// orWall is e, or the wall clock when e is nil.
func orWall(e env) env {
	if e == nil {
		return wallClock{}
	}
	return e
}

// after is the instant d past e's now.
func after(e env, d time.Duration) time.Time { return e.now().Add(d) }

// armRead and armWrite set conn's read or write deadline; the zero Time
// clears it.
func armRead(c net.Conn, t time.Time)  { _ = c.SetReadDeadline(t) }
func armWrite(c net.Conn, t time.Time) { _ = c.SetWriteDeadline(t) }

// armAccept bounds the listener's Accept at t (the zero Time clears it)
// when the listener has a SetDeadline method, and reports whether it
// had. A wrapper that embeds net.Listener hides the method, and then
// nothing bounds the accept.
func armAccept(ln net.Listener, t time.Time) bool {
	dl, ok := ln.(interface{ SetDeadline(time.Time) error })
	if ok {
		_ = dl.SetDeadline(t)
	}
	return ok
}
