package experiments

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/queueing"
)

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tables, err := Run(id, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				out := tb.String()
				if len(out) == 0 || len(tb.Rows) == 0 {
					t.Fatalf("empty table: %q", tb.Title)
				}
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("E99", true); err == nil {
		t.Fatal("no error")
	}
}

func TestTitlesCoverIDs(t *testing.T) {
	titles := Titles()
	for _, id := range IDs() {
		if titles[id] == "" {
			t.Errorf("no title for %s", id)
		}
	}
}

func TestProfilesValidateAndIncludeSurveyedSix(t *testing.T) {
	ps := Profiles()
	if len(ps) != 7 {
		t.Fatalf("profiles = %d, want 6 surveyed + self", len(ps))
	}
	want := []string{"Bricks", "OptorSim", "SimGrid", "GridSim", "ChicagoSim", "MONARC 2"}
	for i, name := range want {
		if ps[i].Name != name {
			t.Fatalf("profile %d = %q, want %q", i, ps[i].Name, name)
		}
		if err := ps[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestE1TableMentionsAllSimulators(t *testing.T) {
	out := E1Table1().String()
	for _, name := range []string{"Bricks", "OptorSim", "SimGrid", "GridSim", "ChicagoSim", "MONARC 2"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 1 missing %s:\n%s", name, out)
		}
	}
}

// TestE6AnalyticInsideCI runs every E6 row at Run's quick size and
// requires the analytic mean inside the row's 95 % confidence
// interval.
func TestE6AnalyticInsideCI(t *testing.T) {
	for _, s := range e6Stations() {
		requireInsideCI(t, s, s.run(100_000))
	}
}

func requireInsideCI(t *testing.T, s station, jobs []job) {
	t.Helper()
	for _, m := range s.rows {
		mean, ci := m.estimate(jobs)
		if math.Abs(mean-m.analytic) > ci {
			t.Errorf("%s %s: analytic %.4f outside %.4f ± %.4f", s.name, m.name, m.analytic, mean, ci)
		}
	}
}

// TestStationMatchesMM1 checks the space-shared CPU as an M/M/1
// station at rho=0.5: W and Wq inside their confidence intervals and
// within 5 % and 8 % of theory, and the time-average number in system
// (the summed sojourns over the run's span) and the busy fraction
// within 8 % and 5 %.
func TestStationMatchesMM1(t *testing.T) {
	th, _ := queueing.NewMM1(0.5, 1)
	s := fifo("M/M/1 rho=0.5", 42, 0.5, 1, expMean(1), th.W, th.Wq)
	jobs := s.run(200_000)
	requireInsideCI(t, s, jobs)
	for _, m := range s.rows {
		mean, _ := m.estimate(jobs)
		if tol := map[string]float64{"W": 0.05, "Wq": 0.08}[m.name]; relErr(mean, m.analytic) > tol {
			t.Errorf("%s: sim %v vs theory %v", m.name, mean, m.analytic)
		}
	}
	var span, sojourns, busy float64
	for _, j := range jobs {
		span = max(span, j.at+j.t)
		sojourns += j.t
		busy += j.x
	}
	if l := sojourns / span; relErr(l, th.L) > 0.08 {
		t.Errorf("L: sim %v vs theory %v", l, th.L)
	}
	if rho := busy / span; relErr(rho, 0.5) > 0.05 {
		t.Errorf("rho: sim %v vs 0.5", rho)
	}
}

// TestStationMMCWaitBelowMM1 checks pooling: at equal capacity, two
// cores of half the speed (M/M/2 with mu=0.5) wait less than one.
func TestStationMMCWaitBelowMM1(t *testing.T) {
	single, _ := queueing.NewMM1(0.8, 1)
	pooled, _ := queueing.NewMMC(0.8, 0.5, 2)
	one := fifo("M/M/1 rho=0.8", 7, 0.8, 1, expMean(1), single.W, single.Wq)
	two := fifo("M/M/2 rho=0.8", 7, 0.8, 2, expMean(2), pooled.W, pooled.Wq)
	wq := map[string]float64{}
	for _, s := range []station{one, two} {
		jobs := s.run(100_000)
		requireInsideCI(t, s, jobs)
		wq[s.name], _ = s.rows[1].estimate(jobs) // fifo rows are W, Wq
	}
	if wq[two.name] >= wq[one.name] {
		t.Errorf("M/M/2 Wq %v not below M/M/1 Wq %v", wq[two.name], wq[one.name])
	}
}

func TestE6ErrorsSmall(t *testing.T) {
	tb := E6Validation(150000)
	for _, row := range tb.Rows {
		errPct, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatalf("bad err cell %q", row[len(row)-1])
		}
		if errPct > 10 {
			t.Fatalf("validation error %v%% for %v/%v exceeds 10%%", errPct, row[0], row[1])
		}
	}
}

func TestE7StudyShapeMatchesPaper(t *testing.T) {
	tb := E7TierStudy(40, 900)
	// Find the 2.5 and 30 Gbps rows and check the sufficiency flip.
	var low, high string
	for _, row := range tb.Rows {
		switch row[0] {
		case "2.5":
			low = row[len(row)-1]
		case "30":
			high = row[len(row)-1]
		}
	}
	if low != "false" {
		t.Fatalf("2.5 Gbps sufficient = %q, want false", low)
	}
	if high != "true" {
		t.Fatalf("30 Gbps sufficient = %q, want true", high)
	}
}

func relErr(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

// TestWriteSVGReports charts the tables of E1, E3, E7 and E9: only the
// three sweeps get a chart, and every plotted point is a table cell —
// E3's (kind, n, ns) per measured cell, E7's (n, delivered %) per row,
// E9's (strategy, zipf s, hit ratio) per row.
func TestWriteSVGReports(t *testing.T) {
	var tables []*metrics.Table
	for _, id := range []string{"E1", "E7", "E9"} {
		tbs, err := Run(id, true)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbs...)
	}
	tables = append(tables, E3QueueShootout([]int{100, 1000}, 200))
	files, err := WriteSVGReports(t.TempDir(), tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("files = %v", files)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "<svg") {
			t.Fatalf("%s is not SVG", f)
		}
	}

	num := func(cell string) float64 {
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("cell %q: %v", cell, err)
		}
		return v
	}
	point := func(series string, x, y float64) string { return fmt.Sprintf("%s (%v, %v)", series, x, y) }
	for _, tb := range tables {
		var want []string
		for _, r := range tb.Rows {
			switch {
			case strings.HasPrefix(tb.Title, "E3. "):
				for i := 1; i < len(r); i++ {
					if r[i] != "-" {
						want = append(want, point(tb.Headers[i], num(r[0]), num(r[i])))
					}
				}
			case strings.HasPrefix(tb.Title, "E7. "):
				want = append(want, point("delivered %", num(r[0]), num(r[1])))
			case strings.HasPrefix(tb.Title, "E9. "):
				want = append(want, point(r[1], num(r[0]), num(r[2])))
			}
		}
		ch := chartFor(tb)
		if (ch != nil) != (want != nil) {
			t.Fatalf("%q: charted %v", tb.Title, ch != nil)
		} else if ch == nil {
			continue
		}
		var got []string
		for _, s := range ch.series(tb) {
			for i := range s.X {
				got = append(got, point(s.Name, s.X[i], s.Y[i]))
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%q: plotted %v, table has %v", tb.Title, got, want)
		}
	}
}
