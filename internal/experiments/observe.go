package experiments

import (
	"fmt"
	"os"

	"repro/internal/metrics"
	"repro/internal/monitoring"
	"repro/internal/obs"
	"repro/internal/parsim"
)

// ObserveE5 runs the E5 PHOLD federation with full observability — a
// trace recorder and latency histograms on every LP, barrier-wait and
// utilization histograms on every pool worker — and reports where the
// run's wall time went. When tracePath is non-empty it also writes a
// Chrome trace-event JSON file (Perfetto / chrome://tracing, one track
// per LP and per worker) and re-reads it through a strict JSON parser
// so a corrupt export fails loudly rather than in the viewer. When
// monPath is non-empty the same telemetry is exported in the
// monitoring wire format, ready to Replay as trace-driven input.
func ObserveE5(tracePath, monPath string, quick bool) (*metrics.Table, error) {
	lps, workers := 8, 4
	jobsPerLP, work, horizon := 16, 20000, 60.0
	if quick {
		work, horizon = 2000, 10.0
	}
	const lookahead, remoteProb, seed = 1.0, 0.2, 77

	ph := parsim.NewPHOLD(lps, workers, lookahead, jobsPerLP, remoteProb, work, seed)
	ph.Fed.EnableObservability(1 << 15)
	events := ph.Run(horizon)
	snap := ph.Fed.Snapshot()

	t := metrics.NewTable(
		"E5t. Observability: where the federation's wall time goes",
		"metric", "value")
	t.AddRowf("model events", events)
	t.AddRowf("windows", snap.Windows)
	t.AddRowf("idle LP-window skips", snap.IdleSkips)
	t.AddRowf("pool", snap.Pool.String())
	t.AddRowf("window wall", snap.WindowWall.String())
	t.AddRowf("barrier wait", snap.BarrierWait.String())
	for w, u := range snap.Utilization {
		t.AddRowf(fmt.Sprintf("worker %d utilization", w), fmt.Sprintf("%.2f", u))
	}
	var exec, dwell obs.Histogram
	for _, st := range snap.LPs {
		exec.Merge(st.Exec)
		dwell.Merge(st.Dwell)
	}
	t.AddRowf("event exec (all LPs)", exec.String())
	t.AddRowf("queue dwell (sim ns)", dwell.String())

	if tracePath != "" {
		tracks := ph.Fed.TraceTracks()
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		if err := obs.WriteChromeTrace(f, tracks...); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		data, err := os.ReadFile(tracePath)
		if err != nil {
			return nil, err
		}
		n, tids, err := obs.ValidateChromeTrace(data)
		if err != nil {
			return nil, err
		}
		if len(tids) != len(tracks) {
			return nil, fmt.Errorf("experiments: trace has %d tracks, want %d", len(tids), len(tracks))
		}
		t.AddRowf("trace events written", n)
		t.AddRowf("trace tracks", len(tids))
	}
	if monPath != "" {
		var recs []monitoring.Record
		for i, st := range snap.LPs {
			site := fmt.Sprintf("lp-%d", i)
			recs = append(recs, monitoring.HistogramRecords(horizon, site, "exec", st.Exec)...)
		}
		recs = append(recs, monitoring.HistogramRecords(horizon, "fed", "barrier_wait", snap.BarrierWait)...)
		for _, tr := range ph.Fed.TraceTracks() {
			recs = append(recs, monitoring.TelemetryRecords(tr.Name, tr.Rec.Spans())...)
		}
		f, err := os.Create(monPath)
		if err != nil {
			return nil, err
		}
		if err := monitoring.Write(f, recs); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		t.AddRowf("monitoring records written", len(recs))
	}
	return t, nil
}
