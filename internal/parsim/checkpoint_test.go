package parsim

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/checkpoint"
)

const (
	ckLPs       = 8
	ckJobs      = 8
	ckWork      = 200
	ckLookahead = 1.0
	ckRemote    = 0.3
	ckSeed      = 411
)

func ckPHOLD(workers int) *PHOLD {
	return NewPHOLD(ckLPs, workers, ckLookahead, ckJobs, ckRemote, ckWork, ckSeed)
}

// TestFederationResumeBitIdentical checkpoints a PHOLD federation at a
// window barrier halfway through the run, restores it into a freshly
// built federation (different seed, possibly different worker count),
// and requires the final per-LP event counts, engine statistics, and
// message counters to equal a run that was never interrupted. The
// snapshot itself equals, byte for byte, the one a single worker writes
// at that barrier, and it holds deliveries not yet run.
func TestFederationResumeBitIdentical(t *testing.T) {
	underPoolSwitches(t, testFederationResumeBitIdentical)
}

func testFederationResumeBitIdentical(t *testing.T) {
	const H = 40.0
	ref := ckPHOLD(1)
	var handled uint64
	for i := 0; i < ckLPs; i++ {
		lp := ref.Fed.LP(i)
		onMessage := lp.OnMessage
		lp.OnMessage = func(ev Event) { handled++; onMessage(ev) }
	}
	ref.Run(H / 2)
	var delivered uint64
	for i := 0; i < ckLPs; i++ {
		delivered += ref.Fed.LP(i).Received()
	}
	if delivered == handled {
		t.Fatalf("all %d deliveries ran before the checkpoint: the snapshot holds none pending", delivered)
	}
	var refSnap bytes.Buffer
	if err := ref.Fed.Checkpoint(&refSnap); err != nil {
		t.Fatal(err)
	}
	ref.Run(H)
	refCounts := ref.PerLPEvents()

	for _, wk := range []struct{ first, resumed int }{
		{1, 1}, {2, 2}, {8, 8}, {2, 8}, {8, 1},
	} {
		wk := wk
		t.Run(fmt.Sprintf("w%d-w%d", wk.first, wk.resumed), func(t *testing.T) {
			first := ckPHOLD(wk.first)
			first.Run(H / 2)
			var snap bytes.Buffer
			if err := first.Fed.Checkpoint(&snap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap.Bytes(), refSnap.Bytes()) {
				t.Fatal("snapshot differs from the single-worker one")
			}

			// The restoring federation is built with a different seed: every
			// stream must come from the snapshot, not the constructor.
			res := NewPHOLD(ckLPs, wk.resumed, ckLookahead, ckJobs, ckRemote, ckWork, ckSeed+999)
			if err := res.Fed.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			if got := res.Fed.Clock(); got != H/2 {
				t.Fatalf("restored clock %v, want %v", got, H/2)
			}
			res.Run(H)

			if got := res.PerLPEvents(); !equalU64(got, refCounts) {
				t.Fatalf("per-LP counts %v, want %v", got, refCounts)
			}
			if got, want := res.Fed.Windows(), ref.Fed.Windows(); got != want {
				t.Fatalf("windows %d, want %d", got, want)
			}
			for i := 0; i < ckLPs; i++ {
				if g, w := res.Fed.LP(i).E.Stats(), ref.Fed.LP(i).E.Stats(); g != w {
					t.Fatalf("LP %d stats %+v, want %+v", i, g, w)
				}
				if g, w := res.Fed.LP(i).Sent(), ref.Fed.LP(i).Sent(); g != w {
					t.Fatalf("LP %d sent %d, want %d", i, g, w)
				}
				if g, w := res.Fed.LP(i).Received(), ref.Fed.LP(i).Received(); g != w {
					t.Fatalf("LP %d recv %d, want %d", i, g, w)
				}
			}
		})
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFederationCheckpointStable pins that a federation snapshot is
// deterministic and non-destructive.
func TestFederationCheckpointStable(t *testing.T) {
	ph := ckPHOLD(2)
	ph.Run(10)
	var a, b bytes.Buffer
	if err := ph.Fed.Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := ph.Fed.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("federation checkpoint is not deterministic")
	}

	ref := ckPHOLD(2)
	ref.Run(20)
	ph.Run(20)
	if got, want := ph.PerLPEvents(), ref.PerLPEvents(); !equalU64(got, want) {
		t.Fatalf("post-checkpoint run diverged: %v vs %v", got, want)
	}
}

// TestFederationFileHasOneContainer: the federation file is the one
// snapshot container; an LP image, which it holds one per LP and a
// migration carries alone, holds the engine's and the model's state
// inline, with no container of its own.
func TestFederationFileHasOneContainer(t *testing.T) {
	ph := ckPHOLD(2)
	ph.Run(10)
	var file bytes.Buffer
	if err := ph.Fed.Checkpoint(&file); err != nil {
		t.Fatal(err)
	}
	img, err := ph.Fed.g.Extract(3)
	if err != nil {
		t.Fatal(err)
	}
	magic := []byte(checkpoint.Magic)
	if n := bytes.Count(file.Bytes(), magic); n != 1 {
		t.Errorf("federation file holds the snapshot magic %d times, want once", n)
	}
	if n := bytes.Count(img, magic); n != 0 {
		t.Errorf("LP image holds the snapshot magic %d times, want none", n)
	}
}

// TestFederationRestoreValidation exercises the shape checks: LP count,
// lookahead, and missing-model mismatches are hard errors.
func TestFederationRestoreValidation(t *testing.T) {
	ph := ckPHOLD(1)
	ph.Run(5)
	var snap bytes.Buffer
	if err := ph.Fed.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}

	wrongN := NewPHOLD(ckLPs+1, 1, ckLookahead, ckJobs, ckRemote, ckWork, ckSeed)
	if err := wrongN.Fed.Restore(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("LP-count mismatch accepted")
	}
	wrongLA := NewPHOLD(ckLPs, 1, ckLookahead*2, ckJobs, ckRemote, ckWork, ckSeed)
	if err := wrongLA.Fed.Restore(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("lookahead mismatch accepted")
	}

	// A bare federation is checkpointable as built, but no model is
	// attached while the snapshot carries model state.
	bare := NewFederation(ckLPs, ckLookahead, 1, ckSeed)
	if err := bare.Checkpoint(io.Discard); err != nil {
		t.Fatalf("bare federation: %v", err)
	}
	if err := bare.Restore(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("model-state mismatch accepted")
	}

	// Off a window barrier (a send not yet delivered) is refused.
	bare.LP(0).Send(1, ckLookahead, nil)
	if err := bare.Checkpoint(io.Discard); err == nil {
		t.Fatal("Checkpoint with an undelivered message accepted")
	}
}

// TestRunPastClockPanics pins the resume contract: Run(horizon) with
// horizon at or before the restored window clock is a programming
// error, not a silent no-op.
func TestRunPastClockPanics(t *testing.T) {
	ph := ckPHOLD(1)
	ph.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("Run(clock) did not panic")
		}
	}()
	ph.Fed.Run(5)
}

// TestCheckpointOverheadBounded pins the headline cost claim: taking a
// snapshot of an E5-shaped PHOLD federation costs less than 5% of one
// synchronization window's wall time. Best-of-5 on both sides to shrug
// off scheduler noise. Under the race detector both are still taken and
// timed, but the ratio is only logged: its instrumentation costs the
// snapshot's encoding more than the window's event loop, so the ratio
// is not the claim's.
func TestCheckpointOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const work = 50000 // heavy enough that a window dwarfs a snapshot
	ph := NewPHOLD(8, 1, 1.0, 16, 0.2, work, 77)
	ph.Run(10) // warm up: free lists populated, jobs spread out

	best := func(n int, f func()) time.Duration {
		b := time.Duration(1<<63 - 1)
		for i := 0; i < n; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	snapTime := best(5, func() {
		if err := ph.Fed.Checkpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	next := ph.Fed.Clock()
	windowTime := best(5, func() {
		next += 1.0 // exactly one lookahead window per measurement
		ph.Fed.Run(next)
	})
	ratio := float64(snapTime) / float64(windowTime)
	if raceDetector {
		t.Logf("race detector on: snapshot %v is %.1f%% of a %v window, not bounded", snapTime, 100*ratio, windowTime)
	} else if ratio >= 0.05 {
		t.Fatalf("snapshot %v is %.1f%% of a %v window (budget 5%%)",
			snapTime, 100*ratio, windowTime)
	}
}
