package obs

import (
	"testing"

	"repro/internal/checkpoint"
)

// TestHistogramDeltaRoundTrip pins the piggyback codec: successive
// delta encodings against a moving baseline, folded into a fresh
// histogram on the far side, reconstruct counts, sum, and bounds
// exactly.
func TestHistogramDeltaRoundTrip(t *testing.T) {
	var src, prev, dst Histogram
	samples := [][]int64{
		{1, 5, 9, 130, 131, 4096},
		{0, 2, 1 << 20, 7},
		{}, // idle interval: empty delta must still decode
		{3, 3, 3, 1 << 40},
	}
	for _, batch := range samples {
		for _, v := range batch {
			src.Observe(v)
		}
		enc := checkpoint.NewEnc(nil)
		src.AppendDelta(&enc, &prev)
		prev = src
		d := checkpoint.NewDec(enc.Bytes())
		if err := dst.MergeDelta(d); err != nil {
			t.Fatal(err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("delta left %d undecoded bytes", d.Remaining())
		}
	}
	if dst.Count() != src.Count() || dst.Sum() != src.Sum() {
		t.Fatalf("reconstructed n=%d sum=%d, want n=%d sum=%d",
			dst.Count(), dst.Sum(), src.Count(), src.Sum())
	}
	if dst.Min() != src.Min() || dst.Max() != src.Max() {
		t.Fatalf("reconstructed min=%d max=%d, want min=%d max=%d",
			dst.Min(), dst.Max(), src.Min(), src.Max())
	}
	for q := 0.1; q < 1; q += 0.2 {
		if dst.Quantile(q) != src.Quantile(q) {
			t.Fatalf("q%.1f: reconstructed %v, source %v", q, dst.Quantile(q), src.Quantile(q))
		}
	}
}

// TestMergeDeltaRejectsGarbage pins the validation: a payload claiming
// more changed buckets than exist, or an out-of-range bucket index,
// must error instead of corrupting the aggregate.
func TestMergeDeltaRejectsGarbage(t *testing.T) {
	var h Histogram
	enc := checkpoint.NewEnc(nil)
	enc.U64(1)  // deltaN
	enc.U64(0)  // deltaSum
	enc.U64(0)  // min
	enc.U64(0)  // max
	enc.U64(66) // changed buckets: impossible
	if err := h.MergeDelta(checkpoint.NewDec(enc.Bytes())); err == nil {
		t.Fatal("oversized changed-bucket count accepted")
	}

	enc = checkpoint.NewEnc(nil)
	enc.U64(1)
	enc.U64(0)
	enc.U64(0)
	enc.U64(0)
	enc.U64(1)
	enc.U64(65) // bucket index out of range
	enc.U64(1)
	if err := h.MergeDelta(checkpoint.NewDec(enc.Bytes())); err == nil {
		t.Fatal("out-of-range bucket index accepted")
	}
}

// TestSpanTrackRoundTrip pins the trace-ring wire format used by the
// final stats piggyback.
func TestSpanTrackRoundTrip(t *testing.T) {
	in := SpanTrack{Name: "lp-3", TID: 4, Spans: []Span{
		{Wall: 100, Dur: 50, Time: 1.5, Seq: 7, Label: "exec", Track: 3, Queue: 2, Kind: KindExec},
		{Wall: 200, Time: 2.0, Seq: 8, Kind: KindSkip},
		{Wall: 300, Dur: 10, Seq: 9, Kind: KindRecovery},
	}}
	enc := checkpoint.NewEnc(nil)
	AppendSpanTrack(&enc, in)
	out, err := DecodeSpanTrack(checkpoint.NewDec(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.TID != in.TID || len(out.Spans) != len(in.Spans) {
		t.Fatalf("track header mangled: %+v", out)
	}
	for i, s := range in.Spans {
		if out.Spans[i] != s {
			t.Fatalf("span %d: got %+v, want %+v", i, out.Spans[i], s)
		}
	}
}
