package monarc

import (
	"math"
	"strings"
	"testing"

	"repro/internal/monitoring"
)

func TestReplayMonitoringDrivesAnalysis(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runs = 5
	cfg.LHC.RunPeriod = 10
	capture := `
# MonALISA-style capture: per-site job submissions
100 T1.0 submit_jobs 3
150 T1.1 submit_jobs 2
200 T1.0 cpu_load 0.9
250 T1.2 submit_jobs 4
300 T9.9 submit_jobs 5
`
	records, err := monitoring.Parse(strings.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayMonitoring(cfg, records)
	if err != nil {
		t.Fatal(err)
	}
	// Three submit_jobs records target real T1 sites (T9.9 is not a
	// site, cpu_load is not a submission).
	if res.RecordsApplied != 3 {
		t.Fatalf("applied = %d, want 3", res.RecordsApplied)
	}
	if res.AnalysisJobs != 9 {
		t.Fatalf("analysis jobs = %d, want 3+2+4", res.AnalysisJobs)
	}
	if res.MeanAnaTime <= 0 || res.DBQueries != 9 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReplayMonitoringRejectsBadRecords(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runs = 1
	if _, err := ReplayMonitoring(cfg, []monitoring.Record{{Time: -5, Site: "T1.0", Param: "submit_jobs", Value: 1}}); err == nil {
		t.Fatal("negative-time record accepted")
	}
	// A job count that is no whole number used to be truncated (2.5) or
	// converted to whatever int the platform makes of it (±Inf, NaN).
	for _, v := range []float64{2.5, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		if _, err := ReplayMonitoring(cfg, []monitoring.Record{{Time: 5, Site: "T1.0", Param: "submit_jobs", Value: v}}); err == nil {
			t.Errorf("submit_jobs %v accepted", v)
		}
	}
	// Other parameters carry any value: they are not job counts.
	if _, err := ReplayMonitoring(cfg, []monitoring.Record{{Time: 5, Site: "T1.0", Param: "cpu_load", Value: 0.5}}); err != nil {
		t.Errorf("cpu_load 0.5: %v", err)
	}
}
