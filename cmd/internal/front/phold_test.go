package front

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	_ "unsafe" // for go:linkname

	"repro/internal/metrics"
	"repro/internal/monitoring"
	"repro/internal/obs"
)

// poolForced is internal/pool's unexported test hook, the mode every
// pool created from now on is forced into: 0 leaves the choice to the
// pool's measurements.
//
//go:linkname poolForced repro/internal/pool.forced
var poolForced uint8

// poolDispatched is pool.dispatched: every Run across the pool threads.
const poolDispatched = 2

// phold runs lssim's phold personality on args through the front door
// and returns its table as metric → value.
func phold(t *testing.T, args ...string) map[string]string {
	t.Helper()
	fs, r := flags("lssim")
	if err := fs.Parse(append([]string{"-sim", "phold", "-jobs", "16"}, args...)); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	tb := metrics.NewTable("phold", "metric", "value")
	if err := r.PHOLD(tb); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, row := range tb.Rows {
		rows[row[0]] = row[1]
	}
	return rows
}

// TestPHOLDObserved runs the observed phold path with every window
// dispatched to 4 pool threads, so the LPs really execute concurrently
// (a shared sequential observer would race here): the trace must pass
// the strict re-parse with the group's window track, one track per LP
// and one per pool thread,
// the monitoring capture must parse, and the per-LP counts must equal
// an unobserved run's.
func TestPHOLDObserved(t *testing.T) {
	poolForced = poolDispatched
	defer func() { poolForced = 0 }()
	dir := t.TempDir()
	trace, mon := filepath.Join(dir, "t.json"), filepath.Join(dir, "t.mon")
	plain := phold(t, "-workers", "4")
	got := phold(t, "-workers", "4", "-histo", "-trace", trace, "-monout", mon, "-verify")

	if got["per-LP events"] != plain["per-LP events"] || got["windows"] != plain["windows"] {
		t.Errorf("observed run: %s in %s windows, unobserved: %s in %s",
			got["per-LP events"], got["windows"], plain["per-LP events"], plain["windows"])
	}
	if !strings.HasPrefix(got["pool"], "0 inline, 40 dispatched") {
		t.Errorf("pool %q: windows were not forced dispatched", got["pool"])
	}
	for _, row := range []string{"window wall", "barrier wait", "worker 3 utilization", "event exec", "queue dwell (sim ns)"} {
		if got[row] == "" {
			t.Errorf("-histo printed no %q row", row)
		}
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	_, tids, err := obs.ValidateChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(tids) != 8+4+1 {
		t.Errorf("trace has %d tracks, want 8 LPs + 4 pool threads + the window track", len(tids))
	}
	if !strings.Contains(string(data), `"window"`) {
		t.Error("trace has no window track")
	}
	for i := 0; i < 4; i++ {
		if name := fmt.Sprintf(`"pw-%d"`, i); !strings.Contains(string(data), name) {
			t.Errorf("trace has no track %s", name)
		}
	}

	f, err := os.Open(mon)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if recs, err := monitoring.Parse(f); err != nil || len(recs) == 0 {
		t.Errorf("monitoring capture: %d records, %v", len(recs), err)
	}
}
