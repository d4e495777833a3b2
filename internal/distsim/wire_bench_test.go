package distsim

import (
	"bytes"
	"testing"
)

// benchEvents builds a window-sized batch shaped like E5 PHOLD traffic.
func benchEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Time: float64(i) * 0.25,
			From: i % 8, To: (i + 3) % 8,
			Seq:  uint64(i + 1),
			Data: []byte{byte(i), byte(i >> 8), 0xab, 0xcd},
		}
	}
	return evs
}

// BenchmarkFrameOverhead prices the hardened send path (explicit
// codec + length/seq/ack header + CRC32) for one 64-event window frame.
func BenchmarkFrameOverhead(b *testing.B) {
	evs := benchEvents(64)
	b.Run("framed", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			buf := MarshalWindowWire(evs, 10, uint64(i+1), uint64(i))
			n = len(buf)
		}
		b.ReportMetric(float64(n), "wire_bytes")
	})
}

// TestPooledWireZeroAlloc pins the steady-state allocation contract of
// the pooled wire path: once the per-link scratch (encode buffer, wire
// buffer, frame, events slice) has warmed up, encoding and decoding a
// window-sized frame allocates nothing — while producing bytes
// identical to a cold encode into nil buffers.
func TestPooledWireZeroAlloc(t *testing.T) {
	evs := benchEvents(64)
	src := &frame{Kind: frameWindow, End: 10, Events: evs}
	want := appendWire(nil, 7, 3, marshalFrameInto(src, nil))

	var payload, wire []byte
	var f frame
	var scratch []Event
	var decodeErr error
	run := func() {
		payload = marshalFrameInto(src, payload)
		wire = appendWire(wire[:0], 7, 3, payload)
		decodeErr = unmarshalFrameInto(&f, &scratch, payload)
	}
	run() // warm the pooled buffers
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if !bytes.Equal(wire, want) {
		t.Fatalf("pooled wire image differs from the cold one: %d vs %d bytes", len(wire), len(want))
	}
	if len(f.Events) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(f.Events), len(evs))
	}
	for i := range evs {
		got := f.Events[i]
		if got.Time != evs[i].Time || got.From != evs[i].From ||
			got.To != evs[i].To || got.Seq != evs[i].Seq || !bytes.Equal(got.Data, evs[i].Data) {
			t.Fatalf("event %d round-trip mismatch: got %+v want %+v", i, got, evs[i])
		}
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("pooled encode/decode allocates %v per frame, want 0", allocs)
	}
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
}

// BenchmarkPooledFrameCodec measures the pooled per-link codec on a
// 64-event window frame; allocs/op must read 0 (see
// TestPooledWireZeroAlloc for the enforced assertion).
func BenchmarkPooledFrameCodec(b *testing.B) {
	evs := benchEvents(64)
	src := &frame{Kind: frameWindow, End: 10, Events: evs}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var payload, wire []byte
		for i := 0; i < b.N; i++ {
			payload = marshalFrameInto(src, payload)
			wire = appendWire(wire[:0], uint64(i+1), uint64(i), payload)
		}
		b.ReportMetric(float64(len(wire)), "wire_bytes")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		payload := marshalFrameInto(src, nil)
		var f frame
		var scratch []Event
		for i := 0; i < b.N; i++ {
			if err := unmarshalFrameInto(&f, &scratch, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
