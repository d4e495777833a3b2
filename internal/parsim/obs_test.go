package parsim

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// TestFederationObservabilityDeterminism pins that enabling tracing
// and metrics changes nothing about a parallel run: per-LP event
// counters stay bit-identical to an untraced run at every worker
// count.
func TestFederationObservabilityDeterminism(t *testing.T) {
	run := func(workers int, observe bool) []uint64 {
		ph := NewPHOLD(4, workers, 0.5, 8, 0.3, 50, 42)
		if observe {
			ph.Fed.EnableObservability(1 << 12)
		}
		ph.Run(30)
		return ph.PerLPEvents()
	}
	ref := run(1, false)
	for _, workers := range []int{1, 2, 4} {
		got := run(workers, true)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d traced: LP %d events %d, want %d",
					workers, i, got[i], ref[i])
			}
		}
	}
}

func TestFederationSnapshot(t *testing.T) {
	ph := NewPHOLD(4, 2, 0.5, 8, 0.3, 50, 42)
	ph.Fed.EnableObservability(1 << 12)
	ph.Run(30)

	s := ph.Fed.Snapshot()
	if s.Windows != ph.Fed.Windows() || s.Windows == 0 {
		t.Fatalf("windows = %d", s.Windows)
	}
	if len(s.LPs) != 4 {
		t.Fatalf("LP stats = %d", len(s.LPs))
	}
	var executed uint64
	for i, st := range s.LPs {
		executed += st.Executed
		if st.Exec == nil || st.Dwell == nil {
			t.Fatalf("LP %d missing histograms", i)
		}
		if st.Exec.Count() != st.Executed {
			t.Fatalf("LP %d exec histogram n=%d, executed=%d", i, st.Exec.Count(), st.Executed)
		}
	}
	if executed == 0 {
		t.Fatal("no events executed")
	}
	if s.BarrierWait == nil || s.BarrierWait.Count() == 0 {
		t.Fatal("no barrier-wait samples")
	}
	if s.WindowWall == nil || s.WindowWall.Count() != s.Windows {
		t.Fatalf("window-wall samples = %d, windows = %d", s.WindowWall.Count(), s.Windows)
	}
	if s.Pool.Inline+s.Pool.Dispatched != s.Windows || s.Pool.Inline == 0 || s.Pool.Dispatched == 0 {
		t.Fatalf("pool ran %+v over %d windows, want every window counted and trials both ways", s.Pool, s.Windows)
	}
	if got, want := s.BarrierWait.Count(), 2*s.Pool.Dispatched; got != want {
		t.Fatalf("barrier-wait samples = %d, want one per worker per dispatched window (%d)", got, want)
	}
	if len(s.Utilization) != 2 {
		t.Fatalf("utilization workers = %d", len(s.Utilization))
	}
	for w, u := range s.Utilization {
		if u <= 0 || u > 1.5 { // wall-clock jitter can push it slightly over 1
			t.Fatalf("worker %d utilization = %v", w, u)
		}
	}

	// Without observability a snapshot still carries the counters.
	ph2 := NewPHOLD(2, 1, 0.5, 4, 0.3, 10, 7)
	ph2.Run(10)
	s2 := ph2.Fed.Snapshot()
	if s2.BarrierWait != nil || s2.Utilization != nil {
		t.Fatal("untraced snapshot has observability fields")
	}
	if s2.Windows == 0 || len(s2.LPs) != 2 {
		t.Fatalf("untraced snapshot counters: %+v", s2)
	}
}

// TestFederationTraceTracks pins the exported track layout (the group's
// window track, one per LP and one per pool worker, distinct tids) and
// that the resulting Chrome trace parses and contains barrier-wait
// spans, and one window-busy span of the window track per window.
func TestFederationTraceTracks(t *testing.T) {
	ph := NewPHOLD(4, 2, 0.5, 8, 0.3, 50, 42)
	if ph.Fed.TraceTracks() != nil {
		t.Fatal("tracks before EnableObservability")
	}
	ph.Fed.EnableObservability(1 << 12)
	ph.Run(30)

	tracks := ph.Fed.TraceTracks()
	if len(tracks) != 1+4+2 || tracks[0].Name != "window" {
		t.Fatalf("tracks = %d, want 7, the window track first", len(tracks))
	}
	var busy uint64
	for _, s := range tracks[0].Rec.Spans() {
		if s.Kind == obs.KindWindowBusy {
			busy++
		}
	}
	if busy != ph.Fed.Windows() {
		t.Fatalf("window track has %d busy spans, federation ran %d windows", busy, ph.Fed.Windows())
	}
	seen := map[int]bool{}
	for _, tr := range tracks {
		if seen[tr.TID] {
			t.Fatalf("duplicate tid %d", tr.TID)
		}
		seen[tr.TID] = true
	}
	var execSpans, barrierSpans int
	for _, tr := range tracks {
		for _, s := range tr.Rec.Spans() {
			switch s.Kind {
			case obs.KindExec:
				execSpans++
			case obs.KindBarrierWait:
				barrierSpans++
			}
		}
	}
	if execSpans == 0 || barrierSpans == 0 {
		t.Fatalf("spans: exec=%d barrier=%d", execSpans, barrierSpans)
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tracks...); err != nil {
		t.Fatal(err)
	}
	events, tids, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 || len(tids) != 7 {
		t.Fatalf("chrome trace: events=%d tids=%v", events, tids)
	}
}
