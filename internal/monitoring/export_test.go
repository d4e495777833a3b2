package monitoring

import (
	"bytes"
	"testing"

	"repro/internal/des"
	"repro/internal/obs"
)

// TestTelemetryRoundTrip closes the monitoring loop: run a traced
// simulation, export its telemetry in wire format, parse it back, and
// replay it into a fresh engine as trace-driven input.
func TestTelemetryRoundTrip(t *testing.T) {
	rec := obs.NewRecorder(1 << 10)
	e := des.NewEngine(des.WithSeed(5))
	e.SetObserver(des.Observer{Recorder: rec})
	src := e.Stream("load")
	var step func()
	n := 0
	step = func() {
		n++
		if n < 50 {
			e.Schedule(src.Exp(1), step)
		}
	}
	e.Schedule(src.Exp(1), step)
	tomb := e.Schedule(2, func() {})
	tomb.Cancel()
	e.Run()

	recs := TelemetryRecords("T1.0", rec.Spans())
	if len(recs) == 0 {
		t.Fatal("no telemetry records")
	}
	var sawExec, sawQueue, sawCancel bool
	for _, r := range recs {
		switch r.Param {
		case "exec_ns":
			sawExec = true
		case "queue_len":
			sawQueue = true
		case "cancel":
			sawCancel = true
		}
	}
	if !sawExec || !sawQueue || !sawCancel {
		t.Fatalf("missing params: exec=%v queue=%v cancel=%v", sawExec, sawQueue, sawCancel)
	}

	// Wire format round trip.
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(recs) {
		t.Fatalf("parsed %d records, wrote %d", len(parsed), len(recs))
	}
	for i := range parsed {
		if parsed[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, parsed[i], recs[i])
		}
	}

	// The capture drives a fresh simulation (trace-driven DES).
	e2 := des.NewEngine()
	handled := 0
	if err := Replay(e2, parsed, func(Record) { handled++ }); err != nil {
		t.Fatal(err)
	}
	e2.Run()
	if handled != len(parsed) {
		t.Fatalf("replayed %d of %d records", handled, len(parsed))
	}
}

func TestHistogramRecords(t *testing.T) {
	var h obs.Histogram
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	recs := HistogramRecords(12.5, "site", "exec", &h)
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	byParam := map[string]float64{}
	buckets := 0
	for _, r := range recs {
		if r.Time != 12.5 || r.Site != "site" {
			t.Fatalf("bad record %+v", r)
		}
		byParam[r.Param] = r.Value
		if len(r.Param) > 12 && r.Param[:12] == "exec_bucket_" {
			buckets++
		}
	}
	if byParam["exec_count"] != 100 || byParam["exec_max"] != 100000 {
		t.Fatalf("summaries: %v", byParam)
	}
	if buckets == 0 {
		t.Fatal("no bucket records")
	}
	var sum float64
	for p, v := range byParam {
		if len(p) > 12 && p[:12] == "exec_bucket_" {
			sum += v
		}
	}
	if sum != 100 {
		t.Fatalf("bucket counts sum to %v, want 100", sum)
	}
	if HistogramRecords(0, "s", "p", nil) != nil {
		t.Fatal("nil histogram should export nothing")
	}
	if HistogramRecords(0, "s", "p", &obs.Histogram{}) != nil {
		t.Fatal("empty histogram should export nothing")
	}
}
