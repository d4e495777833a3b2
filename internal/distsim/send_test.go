package distsim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/parsim"
)

// TestBadSendPanicsInTheSender pins, for both transports of the
// kernel, that a send no window can honour is refused where it is made:
// a NaN or infinite delay used to pass the sender's `delay < lookahead`
// test and panic in the receiving engine at the next barrier — for
// distsim in another process, after crossing the coordinator's
// next-event arithmetic. A federation knows its LP count; a worker is
// not told the cluster's (the config frame does not carry it), so there
// an ID that is too large is still the coordinator's to refuse.
func TestBadSendPanicsInTheSender(t *testing.T) {
	const lps = 2
	fed := parsim.NewFederation(lps, 1, 1, 7)
	w := NewWorker(0, 1)
	InstallPHOLD(w, lps, 1, 0.5, 0)
	if err := w.applyConfig(&frame{Kind: frameConfig, Lookahead: 1, Horizon: 10, Seed: 7, TimeoutSec: 30}); err != nil {
		t.Fatal(err)
	}
	defer w.closePool()
	both := map[string]*LP{"parsim": fed.LP(0), "distsim": w.LP(0)}

	for _, tc := range []struct {
		name    string
		to      int
		delay   float64
		senders map[string]*LP
	}{
		{"below lookahead", 1, 0.2, both},
		{"NaN", 1, math.NaN(), both},
		{"+Inf", 1, math.Inf(1), both},
		{"-Inf", 1, math.Inf(-1), both},
		{"negative target", -1, 2, both},
		{"target past the last LP", lps, 2, map[string]*LP{"parsim": fed.LP(0)}},
	} {
		for transport, lp := range tc.senders {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "LP 0: Send") {
						t.Errorf("%s, %s: panic %q, want one from LP 0's Send", transport, tc.name, msg)
					}
				}()
				lp.Send(tc.to, tc.delay, nil)
			}()
			if lp.Sent() != 0 {
				t.Errorf("%s, %s: the refused send was counted", transport, tc.name)
			}
		}
	}
}
