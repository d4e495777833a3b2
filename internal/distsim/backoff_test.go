package distsim

import (
	"errors"
	"net"
	"testing"
	"time"
)

// TestBackoffDefaults pins the waits an lsnode run without flags gets
// (env.go's table): 8 connect attempts 50 ms of backoff apart at first,
// at most 5 s; a 10 s wait for the config; a resume window of
// min(Timeout, 2 s) with four hello tries in it; Timeout, 30 s, for
// everything derived from it.
func TestBackoffDefaults(t *testing.T) {
	if connectAttempts != 8 || backoffBase != 50*time.Millisecond || backoffCap != 5*time.Second ||
		connectWait != 10*time.Second || DefaultTimeout != 30*time.Second {
		t.Fatalf("attempts %d, backoff %v..%v, config wait %v, Timeout %v", connectAttempts, backoffBase, backoffCap, connectWait, DefaultTimeout)
	}
	for _, tc := range []struct{ timeout, window time.Duration }{
		{DefaultTimeout, 2 * time.Second}, {time.Second, time.Second}, {0, 2 * time.Second},
	} {
		if w := resumeWait(tc.timeout); w != tc.window || w/helloTries != tc.window/4 {
			t.Errorf("Timeout %v: resume window %v, want %v", tc.timeout, w, tc.window)
		}
	}
}

// TestBackoffCapSaturation verifies that large attempt numbers clamp to
// backoffCap — including the jitter, which must never push a delay past
// the cap — and that saturation does not loop attempt-many times.
func TestBackoffCapSaturation(t *testing.T) {
	b := newBackoff(7)
	for attempt := 0; attempt < 64; attempt++ {
		if d := b.delay(attempt); d > backoffCap {
			t.Fatalf("delay(%d) = %v exceeds cap %v", attempt, d, backoffCap)
		}
	}
	// 50ms doubling crosses the 5s cap by attempt 7; an unbroken loop
	// would overflow float precision into garbage rather than the cap.
	if d := b.delay(1 << 30); d != backoffCap {
		t.Fatalf("saturated delay = %v, want exactly %v", d, backoffCap)
	}
}

// TestBackoffGrowth verifies the exponential shape below the cap: the
// delay before retry a is backoffBase·2^a plus under a quarter of it in
// jitter.
func TestBackoffGrowth(t *testing.T) {
	b := newBackoff(7)
	for attempt := 0; attempt < 6; attempt++ {
		floor := backoffBase << attempt
		if d := b.delay(attempt); d < floor || d >= floor+floor/4 {
			t.Fatalf("delay(%d) = %v, want in [%v, %v)", attempt, d, floor, floor+floor/4)
		}
	}
}

// TestBackoffDeterministicJitter is the replayability property: two
// backoffs built from the same seed draw the same schedule, while a
// different seed — another worker's LP set — draws a different one.
func TestBackoffDeterministicJitter(t *testing.T) {
	a, b, other := newBackoff(42), newBackoff(42), newBackoff(43)
	differs := false
	for attempt := 0; attempt < 16; attempt++ {
		da, db, dc := a.delay(attempt), b.delay(attempt), other.delay(attempt)
		if da != db {
			t.Fatalf("equal seeds diverged at attempt %d: %v, %v", attempt, da, db)
		}
		differs = differs || da != dc
	}
	if !differs {
		t.Fatal("different seeds never diverged in 16 draws")
	}
}

// TestConnectOneLoop pins the connect cycle: a refused dial and a lost
// handshake each cost one of connectAttempts attempts, with one backoff
// pause between two attempts — there is no retry loop inside an
// attempt.
func TestConnectOneLoop(t *testing.T) {
	sm := newSim(t)
	ln := sm.listen()
	w := NewWorker(0)
	InstallPHOLD(w, 1, 1, 0, 1)
	dials := 0
	w.Dial = func() (net.Conn, error) {
		dials++
		if dials%2 == 1 {
			return nil, errors.New("refused")
		}
		return ln.dial() // nobody accepts: the config never comes
	}
	sm.attach(nil, w)
	var werr error
	if err := sm.run(func() error { werr = w.Run(""); return nil }); err != nil {
		t.Fatal(err)
	}
	if werr == nil || dials != connectAttempts {
		t.Fatalf("Run = %v after %d dials, want an error after %d", werr, dials, connectAttempts)
	}
	var slept time.Duration
	bo := newBackoff(w.idSeed())
	for a := 0; a+1 < connectAttempts; a++ {
		slept += bo.delay(a)
	}
	if got := time.Duration(w.wire.BackoffNs.Load()); got != slept {
		t.Fatalf("paused %v between attempts, want the schedule's %v", got, slept)
	}
}
