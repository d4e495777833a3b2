package distsim

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/partition"
)

// FuzzUnmarshalFrame throws arbitrary bytes at the wire codec: every
// input must either fail with a typed error or decode into a frame
// with a valid kind — never panic, never allocate beyond the payload
// size. The seed corpus
// covers every frame shape the protocol actually sends.
func FuzzUnmarshalFrame(f *testing.F) {
	seeds := []*frame{
		{Kind: frameRegister, LPs: []int{0, 1, 2}},
		{Kind: frameConfig, Lookahead: 1, Horizon: 100, Seed: 42, Session: 7,
			TimeoutSec: 2, ObsEvery: 1, ObsSpans: 64, RebalanceEvery: 2},
		{Kind: frameWindow, End: 3.5, WinSeq: 9, Events: []Event{
			{Time: 1.25, From: 0, To: 3, Seq: 4, Data: []byte{1, 2, 3}},
			{Time: 2.5, From: 2, To: 1, Seq: 8},
		}},
		{Kind: frameDone, Next: math.Inf(1), Obs: []byte{0xAA, 0xBB},
			Events: []Event{{Time: 4, From: 1, To: 0, Seq: 2, Data: []byte{9}}},
			Loads:  []partition.Load{{LP: 1, Events: 3, BusyNs: 4500}}},
		{Kind: frameStats, Stats: WorkerStats{LPs: []int{3, 4}, EventsExecuted: 17,
			Sent: 5, Received: 6, PerLPCounts: map[int]uint64{3: 9, 4: 8}, Incomplete: true}},
		{Kind: frameHello, Session: 99, LPs: []int{5}},
		{Kind: frameSnapshot, Data: []byte("snapshot-bytes")},
		{Kind: frameRestore, Data: []byte("snapshot-bytes"), WinSeq: 4},
		{Kind: frameHeartbeat, RecvSeq: 12, SendSeq: 11},
		{Kind: frameCoordHello, Session: 99},
		{Kind: frameReadopt, LPs: []int{0, 1}, WinSeq: 7, SendSeq: 12},
		{Kind: frameErrCase, Err: "boom"},
	}
	for _, fr := range seeds {
		f.Add(marshalFrameInto(fr, nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr, again frame
		var evs, evs2 []Event
		if err := unmarshalFrameInto(&fr, &evs, data); err != nil {
			return
		}
		if fr.Kind == 0 || fr.Kind >= frameKindMax {
			t.Fatalf("decoded frame has invalid kind %d", fr.Kind)
		}
		// A frame that decodes must re-encode and decode again: the
		// codec is its own round-trip witness.
		if err := unmarshalFrameInto(&again, &evs2, marshalFrameInto(&fr, nil)); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
	})
}

// frameErrCase aliases frameLPState: the donor's error-reporting
// frame, the only one where Err rides a sequenced frame.
const frameErrCase = frameLPState

// allocBound is what decoding n bytes of untrusted input may allocate:
// every count a decoder trusts is first bounded by the bytes left, so
// memory grows with the input (an event or seat is well under 256 bytes
// per byte that declares it), plus the container reader's first 1 MiB
// section buffer and slack for the fuzz worker's own goroutines.
func allocBound(n int) uint64 { return 4<<20 + 256*uint64(n) }

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzParseJournal throws arbitrary bytes at journal replay, seeded
// with the journal_test.go fixture, its torn and bit-flipped variants:
// every input must fail with one of the two typed errors or replay to a
// control state that is a valid cut — a partition of the LPs that
// encodes and decodes to itself — without panicking or allocating
// beyond the input's size bound.
func FuzzParseJournal(f *testing.F) {
	_, data, _ := buildJournal(f)
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add(data[:journalHeaderLen])
	for _, pos := range []int{journalHeaderLen + 5, len(data) / 2, len(data) - 6} {
		flipped := bytes.Clone(data)
		flipped[pos] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var st *journalState
		var err error
		if got := allocated(func() { st, err = parseJournal(data) }); got > allocBound(len(data)) {
			t.Fatalf("replaying %d bytes allocated %d", len(data), got)
		}
		switch {
		case err == nil:
		case errors.Is(err, ErrJournalTruncated):
			if st == nil || !st.torn {
				t.Fatalf("torn journal without its valid prefix: %v", err)
			}
		case errors.Is(err, ErrJournalCorrupt):
			if st != nil {
				t.Fatalf("corrupt journal returned a state and %v", err)
			}
			return
		default:
			t.Fatalf("untyped error %v", err)
		}
		if st.validLen > int64(len(data)) {
			t.Fatalf("valid prefix %d of %d bytes", st.validLen, len(data))
		}
		if st.ctl != nil {
			checkValidControl(t, st.ctl)
		}
	})
}

// FuzzDecodeClusterCheckpoint does the same for the cluster checkpoint
// file, seeded with the journal_test.go checkpoint fixture.
func FuzzDecodeClusterCheckpoint(f *testing.F) {
	c := testControl(f)
	c.clock, c.windows, c.skipped, c.routed = 2, 3, 1, 7
	ck := &clusterCheckpoint{cut: c.cut(), snaps: [][]byte{[]byte("snapshot-a"), []byte("snapshot-b")}}
	data, err := ck.encode(c)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var at *control
		var ck *clusterCheckpoint
		var err error
		if got := allocated(func() { at, ck, err = decodeClusterCheckpoint(data) }); got > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			if at != nil || ck != nil {
				t.Fatalf("decode returned a checkpoint and %v", err)
			}
			return
		}
		if len(ck.snaps) != len(at.slots) {
			t.Fatalf("%d snapshots for %d seats", len(ck.snaps), len(at.slots))
		}
		checkValidControl(t, at)
		if err := at.reset(ck.cut); err != nil {
			t.Fatalf("decoded cut does not reset: %v", err)
		}
	})
}

// checkValidControl asserts what every decoded control state must
// satisfy: its LP sets partition the run, and it survives its own codec.
func checkValidControl(t *testing.T, c *control) {
	t.Helper()
	if err := c.index(); err != nil {
		t.Fatalf("decoded state is not a partition: %v", err)
	}
	var enc checkpoint.Enc
	c.encode(&enc, c.cut())
	back, err := decodeControl(checkpoint.NewDec(enc.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded state does not decode: %v", err)
	}
	back.lookahead, back.horizon, back.seed = c.lookahead, c.horizon, c.seed
	if !sameControl(back, c) {
		t.Fatalf("state changed across its codec:\nwas %+v\nnow %+v", c, back)
	}
}

// FuzzClusterObsFold throws arbitrary bytes at the coordinator's fold of
// a worker's obs snapshot, seeded with a delta and a final payload, cut
// short and with the final one's track count blown up: every input must
// fold or fail with ErrMalformedFrame — a worker's telemetry is off the
// wire like everything else it says — without panicking or allocating
// beyond the input's size bound.
func FuzzClusterObsFold(f *testing.F) {
	pb := NewObsPiggybackBench()
	if _, err := pb.Cycle(); err != nil {
		f.Fatal(err)
	}
	delta := bytes.Clone(pb.w.encodeObs(false))
	final := bytes.Clone(pb.w.encodeObs(true))
	f.Add(delta)
	f.Add(final)
	f.Add(final[:len(final)/2])
	// The tracks are the tail of a final payload, the group's window
	// track first: the byte before its name's length is the track count.
	huge := bytes.Clone(final)
	at := bytes.LastIndex(huge, []byte("window")) - 2
	huge = append(huge[:at:at], 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	f.Add(append(huge, final[at+1:]...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		co := &ClusterObs{}
		co.bind([]*wireStats{{}})
		var err error
		if got := allocated(func() { err = co.fold(0, data) }); got > allocBound(len(data)) {
			t.Fatalf("folding %d bytes allocated %d", len(data), got)
		}
		if err != nil && !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("fold failed with an untyped error: %v", err)
		}
	})
}
