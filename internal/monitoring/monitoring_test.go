package monitoring

import (
	"math"
	"strings"
	"testing"

	"repro/internal/des"
)

func TestWriteParseRoundTrip(t *testing.T) {
	recs := []Record{
		{Time: 0, Site: "T1.0", Param: "cpu_load", Value: 0.42},
		{Time: 60.5, Site: "T1.1", Param: "net_in", Value: 1.25e6},
	}
	var b strings.Builder
	if err := Write(&b, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	in := `
# MonALISA capture
0.0 siteA cpu 1.5

# another comment
2.0 siteB mem 7
`
	recs, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Site != "siteA" || recs[1].Param != "mem" {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"short line": "1.0 site cpu",
		"bad time":   "abc site cpu 1",
		"bad value":  "1.0 site cpu xyz",
		"NaN time":   "NaN site cpu 1",
		"+Inf time":  "+Inf site cpu 1",
		"-Inf time":  "-Inf site cpu 1",
		"NaN value":  "1.0 site cpu nan",
		"Inf value":  "1.0 site cpu Inf",
		"-Inf value": "1.0 site cpu -inf",
		"huge value": "1.0 site cpu 1e400",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error %v lacks line number", name, err)
		}
	}
}

func TestReplayDrivesSimulation(t *testing.T) {
	recs := []Record{
		{Time: 5, Site: "b", Param: "x", Value: 2},
		{Time: 1, Site: "a", Param: "x", Value: 1}, // out of order on purpose
	}
	e := des.NewEngine()
	var seen []Record
	var at []float64
	if err := Replay(e, recs, func(r Record) {
		seen = append(seen, r)
		at = append(at, e.Now())
	}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(seen) != 2 || seen[0].Site != "a" || seen[1].Site != "b" {
		t.Fatalf("seen = %+v", seen)
	}
	if at[0] != 1 || at[1] != 5 {
		t.Fatalf("at = %v", at)
	}
}

func TestReplayNegativeTime(t *testing.T) {
	e := des.NewEngine()
	if err := Replay(e, []Record{{Time: -1}}, func(Record) {}); err == nil {
		t.Fatal("no error for negative time")
	}
}

// TestReplayNonFiniteTime: records built in code bypass Parse, and a
// NaN or infinite time must come back as an error, not as the engine's
// panic — and before any record of the capture is scheduled.
func TestReplayNonFiniteTime(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := des.NewEngine()
		recs := []Record{{Time: 1}, {Time: bad}, {Time: 2}}
		ran := 0
		if err := Replay(e, recs, func(Record) { ran++ }); err == nil {
			t.Errorf("time %v: no error", bad)
		}
		if e.Run(); ran != 0 {
			t.Errorf("time %v: %d records ran after the error", bad, ran)
		}
	}
}

func TestCollectorSamples(t *testing.T) {
	e := des.NewEngine()
	var c Collector
	val := 0.0
	e.Schedule(2.5, func() { val = 7 })
	c.Sample(e, 1.0, 5.0, func() []Record {
		return []Record{{Time: e.Now(), Site: "s", Param: "v", Value: val}}
	})
	e.Run()
	if len(c.Records) != 5 {
		t.Fatalf("samples = %d", len(c.Records))
	}
	if c.Records[1].Value != 0 || c.Records[3].Value != 7 {
		t.Fatalf("values = %+v", c.Records)
	}
}

// TestCollectorStopsAtOrBeforeStop pins the contract that no sample
// ever lands after the stop time — including the first one, which used
// to fire at t=period even when period > stop.
func TestCollectorStopsAtOrBeforeStop(t *testing.T) {
	cases := []struct {
		period, stop float64
		want         int
	}{
		{1.0, 5.0, 5},  // samples at 1..5
		{2.0, 5.0, 2},  // samples at 2, 4
		{2.5, 5.0, 2},  // samples at 2.5, 5.0 — the boundary fires
		{10.0, 5.0, 0}, // period beyond stop: no sample at all
		{5.0, 5.0, 1},  // single boundary sample
		{1.0, 0.5, 0},  // sub-period stop
	}
	for _, tc := range cases {
		e := des.NewEngine()
		var c Collector
		c.Sample(e, tc.period, tc.stop, func() []Record {
			return []Record{{Time: e.Now(), Site: "s", Param: "p", Value: 1}}
		})
		end := e.Run()
		if len(c.Records) != tc.want {
			t.Fatalf("period=%v stop=%v: %d samples, want %d",
				tc.period, tc.stop, len(c.Records), tc.want)
		}
		for _, r := range c.Records {
			if r.Time > tc.stop {
				t.Fatalf("period=%v stop=%v: sample at %v after stop",
					tc.period, tc.stop, r.Time)
			}
		}
		if end > tc.stop {
			t.Fatalf("period=%v stop=%v: engine ran to %v, past stop",
				tc.period, tc.stop, end)
		}
	}
}

func TestCollectorValidation(t *testing.T) {
	e := des.NewEngine()
	var c Collector
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Sample(e, 0, 0, func() []Record { return nil })
}

func TestRecordString(t *testing.T) {
	r := Record{Time: 1.5, Site: "s", Param: "p", Value: 2}
	if r.String() != "1.5 s p 2" {
		t.Fatalf("String = %q", r.String())
	}
}
