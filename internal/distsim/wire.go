package distsim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/partition"
	"repro/internal/winsync"
)

// This file defines the frame vocabulary of the distsim wire protocol
// and its codec. Frames were gob-encoded through PR 3; a single
// corrupted byte could desynchronize the shared gob stream and surface
// as a decoder panic frames later. The hardened protocol encodes every
// frame as a self-contained payload with the explicit checkpoint
// Enc/Dec primitives (uvarint integers, fixed-width floats,
// length-prefixed bytes — no reflection, no cross-frame state), so a
// damaged frame is a typed, recoverable error on exactly the frame it
// hit, and the transport can resynchronize by reconnecting.

// Event is one cross-LP message, on the wire as everywhere else.
type Event = winsync.Event

// frameKind discriminates protocol frames.
type frameKind uint8

const (
	frameRegister   frameKind = iota + 1 // worker -> coordinator: LP ownership (handshake)
	frameConfig                          // coordinator -> worker: run parameters + session id (handshake)
	frameWindow                          // coordinator -> worker: advance + inbound events
	frameDone                            // worker -> coordinator: window finished + outbound events
	frameStop                            // coordinator -> worker: run over
	frameStats                           // worker -> coordinator: final statistics
	frameCheckpoint                      // coordinator -> worker: snapshot your state
	frameSnapshot                        // worker -> coordinator: snapshot bytes (or Err)
	frameRestore                         // coordinator -> worker: overwrite state from snapshot
	frameRestored                        // worker -> coordinator: restore acknowledged
	frameHeartbeat                       // worker -> coordinator: liveness while computing (unsequenced)
	frameHello                           // worker -> coordinator: reconnect, presenting the session (handshake)
	frameBye                             // coordinator -> worker: stats received, session over (handshake)
	frameMigrateOut                      // coordinator -> donor: extract and hand over one LP (LPs[0])
	frameLPState                         // donor -> coordinator: the extracted LP state (or Err)
	frameMigrateIn                       // coordinator -> receiver: adopt one LP (LPs[0] + Data)
	frameMigrated                        // receiver -> coordinator: adoption acknowledged
	frameCoordHello                      // coordinator -> worker: answers a hello, re-adoption offer (handshake)
	frameReadopt                         // worker -> coordinator: re-adoption state (LPs + WinSeq + SendSeq) (handshake)
	frameKindMax                         // sentinel for validation
)

// sequenced reports whether a frame kind is numbered (see link): a
// request or the reply to one. Handshake frames, heartbeats and the bye
// ride outside the sequence space: they are either idempotent or
// answered explicitly.
func (k frameKind) sequenced() bool {
	switch k {
	case frameRegister, frameConfig, frameHeartbeat, frameHello, frameBye, frameCoordHello, frameReadopt:
		return false
	default:
		return true
	}
}

// request reports whether a frame kind is a coordinator request; every
// other sequenced kind is the worker's reply to one.
func (k frameKind) request() bool {
	switch k {
	case frameWindow, frameStop, frameCheckpoint, frameRestore, frameMigrateOut, frameMigrateIn:
		return true
	default:
		return false
	}
}

func (k frameKind) String() string {
	names := [...]string{"", "register", "config", "window", "done", "stop", "stats",
		"checkpoint", "snapshot", "restore", "restored", "heartbeat", "hello", "bye",
		"migrate-out", "lp-state", "migrate-in", "migrated", "coord-hello", "readopt"}
	if int(k) < len(names) && k > 0 {
		return names[k]
	}
	return fmt.Sprintf("frame(%d)", uint8(k))
}

// Typed wire errors. ErrCorruptFrame covers integrity failures (CRC
// mismatch, impossible length); ErrMalformedFrame covers payloads that
// pass the checksum but do not parse. Both poison the peer (see
// peer.fail) and funnel into the reconnect and re-adoption path rather
// than panicking mid-stream.
var (
	ErrCorruptFrame   = errors.New("distsim: corrupt frame")
	ErrMalformedFrame = errors.New("distsim: malformed frame payload")
)

// frame is the single wire message type.
type frame struct {
	Kind       frameKind
	LPs        []int   // register/hello: LP ownership (the slot key)
	Lookahead  float64 // config
	Horizon    float64 // config
	Seed       uint64  // config: base seed for LP engines
	Session    uint64  // config/hello/coord-hello: session identity for re-adoption
	TimeoutSec float64 // config: coordinator timeout; worker heartbeats at a third of it
	End        float64 // window
	Events     []Event // window (inbound) / done (outbound)
	Data       []byte  // restore (coordinator -> worker) / snapshot (worker -> coordinator)
	Stats      WorkerStats
	Err        string
	RecvSeq    uint64  // heartbeat: the newest request the worker received
	SendSeq    uint64  // heartbeat/readopt: the newest request the worker answered
	Next       float64 // done: earliest pending event time on the worker (+Inf when drained)
	WinSeq     uint64  // window: its barrier (trace anchor); restore: the cut's; readopt: the worker's
	ObsEvery   int     // config: piggyback an obs snapshot every N windows (0 = obs off)
	ObsSpans   int     // config: worker trace-ring capacity when obs is on
	Obs        []byte  // done/stats: obs snapshot payload (see distsim obs codec)

	// RebalanceEvery (config) tells workers to measure per-LP load: the
	// coordinator plans migrations every N executed windows, so workers
	// report per-LP executed-event/busy-ns deltas on each done frame.
	RebalanceEvery int
	// Loads rides done frames when RebalanceEvery > 0: per-LP load
	// accumulated since the previous done frame.
	Loads []partition.Load
}

// WorkerStats is the per-worker outcome returned at shutdown.
type WorkerStats struct {
	LPs            []int
	EventsExecuted uint64
	Sent           uint64
	Received       uint64
	PerLPCounts    map[int]uint64 // model-level counts (filled by the model hook)
	// Incomplete marks a slot whose worker died between the final
	// barrier and its stats frame: the run itself completed, but this
	// entry holds only the LP assignment, not the worker's counts.
	Incomplete bool
}

// marshalFrameInto serializes a frame into a self-contained payload,
// appending into buf's storage so the per-link send path reuses one
// encode buffer per frame slot (nil allocates). Field order is fixed;
// every field is always present so the codec has no per-kind branching
// to get wrong.
func marshalFrameInto(f *frame, buf []byte) []byte {
	enc := checkpoint.NewEnc(buf)
	enc.Int(int(f.Kind))
	enc.Int(len(f.LPs))
	for _, lp := range f.LPs {
		enc.Int(lp)
	}
	enc.F64(f.Lookahead)
	enc.F64(f.Horizon)
	enc.U64(f.Seed)
	enc.U64(f.Session)
	enc.F64(f.TimeoutSec)
	enc.F64(f.End)
	enc.Int(len(f.Events))
	for i := range f.Events {
		winsync.AppendEvent(&enc, &f.Events[i])
	}
	enc.Raw(f.Data)
	enc.Int(len(f.Stats.LPs))
	for _, lp := range f.Stats.LPs {
		enc.Int(lp)
	}
	enc.U64(f.Stats.EventsExecuted)
	enc.U64(f.Stats.Sent)
	enc.U64(f.Stats.Received)
	ids := make([]int, 0, len(f.Stats.PerLPCounts))
	for id := range f.Stats.PerLPCounts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	enc.Int(len(ids))
	for _, id := range ids {
		enc.Int(id)
		enc.U64(f.Stats.PerLPCounts[id])
	}
	enc.Str(f.Err)
	enc.U64(f.RecvSeq)
	enc.U64(f.SendSeq)
	enc.F64(f.Next)
	enc.U64(f.WinSeq)
	enc.Int(f.ObsEvery)
	enc.Int(f.ObsSpans)
	enc.Bool(f.Stats.Incomplete)
	enc.Raw(f.Obs)
	enc.Int(f.RebalanceEvery)
	enc.Int(len(f.Loads))
	for i := range f.Loads {
		enc.Int(f.Loads[i].LP)
		enc.U64(f.Loads[i].Events)
		enc.U64(f.Loads[i].BusyNs)
	}
	return enc.Bytes()
}

// unmarshalFrameInto parses a payload written by marshalFrameInto into
// a caller-owned frame and Events scratch slice, so the per-link
// receive path reuses one frame and one event array across windows.
// Any parse failure — truncation, trailing garbage, an unknown kind —
// returns ErrMalformedFrame; the caller treats the connection as
// poisoned. On return f.Events is a prefix of *evs (nil when the frame
// carries no events) and *evs holds the grown scratch for the next
// call. Decoded Event.Data aliases payload (see Dec.RawView): it is
// valid until the payload buffer is reused, which the receive paths
// guarantee by consuming or copying events before the next read on the
// same connection.
func unmarshalFrameInto(f *frame, evs *[]Event, payload []byte) error {
	scratch := *evs
	*f = frame{}
	d := checkpoint.NewDec(payload)
	k := d.Int()
	f.Kind = frameKind(k)
	if n := d.Int(); n > 0 {
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrMalformedFrame, err)
		}
		if n > len(payload) { // each id costs >= 1 byte; cheap sanity bound
			return fmt.Errorf("%w: LP count %d exceeds payload", ErrMalformedFrame, n)
		}
		f.LPs = make([]int, n)
		for i := range f.LPs {
			f.LPs[i] = d.Int()
		}
	}
	f.Lookahead = d.F64()
	f.Horizon = d.F64()
	f.Seed = d.U64()
	f.Session = d.U64()
	f.TimeoutSec = d.F64()
	f.End = d.F64()
	if n := d.Int(); n > 0 {
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrMalformedFrame, err)
		}
		if n > len(payload) { // each event costs >= 1 byte; cheap sanity bound
			return fmt.Errorf("%w: event count %d exceeds payload", ErrMalformedFrame, n)
		}
		if cap(scratch) < n {
			scratch = make([]Event, n)
		} else {
			scratch = scratch[:n]
		}
		for i := range scratch {
			scratch[i] = winsync.DecodeEvent(d)
		}
		f.Events = scratch
		*evs = scratch
	}
	f.Data = d.Raw()
	if n := d.Int(); n > 0 {
		if n > len(payload) {
			return fmt.Errorf("%w: stats LP count %d exceeds payload", ErrMalformedFrame, n)
		}
		f.Stats.LPs = make([]int, n)
		for i := range f.Stats.LPs {
			f.Stats.LPs[i] = d.Int()
		}
	}
	f.Stats.EventsExecuted = d.U64()
	f.Stats.Sent = d.U64()
	f.Stats.Received = d.U64()
	if n := d.Int(); n > 0 {
		if n > len(payload) {
			return fmt.Errorf("%w: per-LP count %d exceeds payload", ErrMalformedFrame, n)
		}
		f.Stats.PerLPCounts = make(map[int]uint64, n)
		for i := 0; i < n; i++ {
			id := d.Int()
			f.Stats.PerLPCounts[id] = d.U64()
		}
	}
	f.Err = d.Str()
	f.RecvSeq = d.U64()
	f.SendSeq = d.U64()
	f.Next = d.F64()
	f.WinSeq = d.U64()
	f.ObsEvery = d.Int()
	f.ObsSpans = d.Int()
	f.Stats.Incomplete = d.Bool()
	// Obs aliases the payload buffer (same lifetime rule as Event.Data):
	// receive paths fold or copy the snapshot before the next read.
	f.Obs = d.RawView()
	f.RebalanceEvery = d.Int()
	if n := d.Int(); n > 0 {
		if n > len(payload) {
			return fmt.Errorf("%w: load count %d exceeds payload", ErrMalformedFrame, n)
		}
		f.Loads = make([]partition.Load, n)
		for i := range f.Loads {
			f.Loads[i].LP = d.Int()
			f.Loads[i].Events = d.U64()
			f.Loads[i].BusyNs = d.U64()
		}
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedFrame, err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformedFrame, d.Remaining())
	}
	if f.Kind == 0 || f.Kind >= frameKindMax {
		return fmt.Errorf("%w: unknown kind %d", ErrMalformedFrame, k)
	}
	return nil
}
