package distsim

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

func TestTwoWorkerMessageExchange(t *testing.T) {
	c := NewCoordinator(2, 1.0, 20, 7)
	w0 := NewWorker(0)
	w1 := NewWorker(1)

	var deliveredAt float64 = -1
	var payload []byte
	w0.Setup = func(w *Worker) {
		lp := w.LP(0)
		lp.OnMessage = func(Event) {}
		lp.E.Schedule(0.5, func() { lp.Send(1, 2.0, []byte("hi")) })
	}
	w1.Setup = func(w *Worker) {
		lp := w.LP(1)
		lp.OnMessage = func(ev Event) {
			deliveredAt = lp.E.Now()
			payload = ev.Data
		}
	}
	launch(t, c, []*Worker{w0, w1})
	if deliveredAt != 2.5 {
		t.Fatalf("delivered at %v, want 2.5", deliveredAt)
	}
	if string(payload) != "hi" {
		t.Fatalf("payload = %q", payload)
	}
	if c.EventsRouted != 1 {
		t.Fatalf("routed = %d", c.EventsRouted)
	}
}

func TestThreeWorkersUnevenPartition(t *testing.T) {
	const lps = 7
	c := NewCoordinator(lps, 1.0, 100, 9)
	workers := []*Worker{NewWorker(0), NewWorker(1, 2, 3), NewWorker(4, 5, 6)}
	for _, w := range workers {
		InstallPHOLD(w, lps, 4, 0.5, 2)
	}
	launch(t, c, workers)
	var total uint64
	for _, n := range c.PerLPCounts() {
		total += n
	}
	if total == 0 {
		t.Fatal("no events processed")
	}
	if lattice(c) != 100 {
		t.Fatalf("windows = %d, want 100", lattice(c))
	}
}

func TestCoordinatorRejectsBadRegistration(t *testing.T) {
	c := NewCoordinator(2, 1, 10, 1)
	// Two workers both claiming LP 0.
	workers := []*Worker{NewWorker(0), NewWorker(0)}
	for _, w := range workers {
		w.Setup = func(w *Worker) { w.LP(0).OnMessage = func(Event) {} }
	}
	if err := newSim(t).loopback(c, workers, nil); err == nil {
		t.Fatal("duplicate LP registration not rejected")
	}
}

// TestStaleHelloDuringRegistration pins the one admission policy: a
// hello for a session nobody holds, knocking while a fresh run is still
// registering, is noise — its connection is closed and the run goes on.
func TestStaleHelloDuringRegistration(t *testing.T) {
	sm := newSim(t)
	ln := sm.listen()
	c := NewCoordinator(2, 1, 10, 1)
	sm.attach(c)
	err := sm.run(func() error {
		serve := sm.start(func() error { return c.Serve(ln, 2) })
		stale, err := ln.dial(0)
		if err != nil {
			return err
		}
		defer stale.Close()
		if err := newPeer(sm, stale).sendRaw(&frame{Kind: frameHello, Session: 12345, LPs: []int{0}}); err != nil {
			return err
		}
		_ = stale.SetReadDeadline(sm.now().Add(10 * time.Second))
		if n, err := stale.Read(make([]byte, 1)); err != io.EOF {
			return fmt.Errorf("stale hello's connection not closed: read %d bytes, %v", n, err)
		}
		runs := []*result{serve}
		for lp := 0; lp < 2; lp++ {
			w := NewWorker(lp)
			InstallPHOLD(w, 2, 2, 0.5, 2)
			w.Dial = ln.host(0)
			sm.attach(nil, w)
			runs = append(runs, sm.start(func() error { return w.Run("") }))
		}
		for _, r := range runs {
			if err := r.wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lattice(c) != 10 {
		t.Fatalf("windows = %d, want 10", lattice(c))
	}
}

func TestWorkerValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"no lps":  func() { NewWorker() },
		"dup lps": func() { NewWorker(1, 1) },
		"bad coordinator": func() {
			NewCoordinator(0, 1, 1, 0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWorkerRequiresSetup(t *testing.T) {
	c := NewCoordinator(1, 1, 5, 1)
	w := NewWorker(0) // no Setup
	if err := newSim(t).loopback(c, []*Worker{w}, nil); err == nil {
		t.Fatal("missing Setup not reported")
	}
}

// TestWorkerRefusesBadConfig walks config frames that used to panic a
// worker — NewGroup on a lookahead that is not > 0, NewTicker(0) on the
// heartbeat goroutine — or silently turn its deadlines off: each must
// come back from applyConfig as a fatal error naming the field, with
// nothing built. The coordinator refuses to send the same values.
func TestWorkerRefusesBadConfig(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		lookahead, timeoutSec float64
		field                 string // "" = accepted
	}{
		{1, 0, "TimeoutSec"}, // no deadlines at all
		{1, 3e-9, ""},
		{1, 30, ""},
		{0, 1, "lookahead"},
		{-1, 1, "lookahead"},
		{nan, 1, "lookahead"},
		{inf, 1, "lookahead"},
		{1, nan, "TimeoutSec"},
		{1, inf, "TimeoutSec"},
		{1, -inf, "TimeoutSec"},
		{1, -1, "TimeoutSec"},
		{1, 1e-10, "TimeoutSec"}, // a zero write deadline
		{1, 2e-9, "TimeoutSec"},  // a zero heartbeat interval
		{1, 1e300, "TimeoutSec"}, // past any Duration
	} {
		w := NewWorker(0)
		InstallPHOLD(w, 1, 1, 0, 1)
		err := w.applyConfig(&frame{Kind: frameConfig, Lookahead: tc.lookahead, Horizon: 10, Seed: 1, TimeoutSec: tc.timeoutSec})
		w.closePool()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("lookahead %v, TimeoutSec %v: %v", tc.lookahead, tc.timeoutSec, err)
		case tc.field == "":
		case err == nil || !isFatal(err) || !strings.Contains(err.Error(), tc.field) || w.g != nil:
			t.Errorf("lookahead %v, TimeoutSec %v: got %v (fatal %v, group built %v), want a fatal error naming %s",
				tc.lookahead, tc.timeoutSec, err, isFatal(err), w.g != nil, tc.field)
		}
		c := &Coordinator{NLPs: 1, Lookahead: tc.lookahead, Horizon: 10, Timeout: time.Duration(tc.timeoutSec * float64(time.Second))}
		// A zero Timeout is the default, not zero deadlines.
		if tc.field == "lookahead" || c.Timeout < 0 || c.Timeout > 0 && c.Timeout < 3 {
			if c.Validate() == nil {
				t.Errorf("lookahead %v, Timeout %v: the coordinator would send it", c.Lookahead, c.Timeout)
			}
		}
	}
}
