// Package obs is the framework's observability layer: an
// allocation-free trace recorder, log-bucketed latency histograms, and
// exporters (Chrome trace-event JSON; the monitoring wire format lives
// in package monitoring to avoid an import cycle).
//
// The taxonomy of the reproduced paper makes "support for validation
// experiments", output analysis, and monitoring-data integration
// first-class axes of simulator design — MONARC 2 is distinguished
// precisely by its coupling to the MonALISA monitoring service. This
// package is the engine-side half of that coupling: it captures where
// wall time goes (event spans, barrier waits, queue depth) without
// perturbing what the simulation computes.
//
// Design constraints, in order:
//
//  1. Zero overhead when disabled. Engines carry a single nil pointer;
//     every instrumentation site is guarded by one predictable branch.
//  2. Zero allocation when enabled. The Recorder writes fixed-size
//     Span values into a pre-sized ring; Histogram is a fixed array of
//     counters. Steady-state recording never touches the heap, so
//     tracing a hot loop does not change its allocation profile.
//  3. Single-writer. A Recorder or Histogram belongs to exactly one
//     goroutine at a time (one engine, one federation worker);
//     cross-thread merging happens at export time, after a barrier.
package obs

import "time"

// epoch anchors wall-clock timestamps. All recorders share it, so
// spans from different tracks (LPs, workers) merge onto one timeline.
var epoch = time.Now()

// Now returns nanoseconds of wall time since process-local epoch,
// using the monotonic clock. It does not allocate.
func Now() int64 { return int64(time.Since(epoch)) }

// Event is the payload delivered to a trace Hook just before an event
// callback executes.
type Event struct {
	// Time is the simulation time of the event.
	Time float64
	// Seq is the engine-assigned monotone sequence number, unique per
	// scheduled event and stable across runs with equal seeds.
	Seq uint64
	// Label is the trace label given at schedule time ("" when none).
	Label string
	// QueueLen is the pending-event queue length at execution.
	QueueLen int
}

// Hook is a typed trace callback invoked before each event executes.
// It replaces the earlier untyped (t float64, label string) hook: the
// seq and queue length make hook output correlatable with recorded
// spans and with determinism traces.
type Hook func(Event)

// Kind classifies a recorded span or mark.
type Kind uint8

const (
	// KindExec is an event-callback execution span (has Dur).
	KindExec Kind = iota
	// KindSchedule marks an event being pushed onto the queue.
	KindSchedule
	// KindCancel marks a canceled event's tombstone being discarded.
	KindCancel
	// KindBarrierWait is a pool thread (done-token to next start-token)
	// or a windowed-sync group (flush to next delivery) between windows.
	KindBarrierWait
	// KindWindowBusy is a pool thread's busy portion of one window
	// (claiming and running LPs), or a group's (delivery to flush).
	KindWindowBusy
	// KindDeliver is a windowed-sync group merging a window's events
	// into its engines (sort + schedule), nested at the start of the
	// group's window-busy span.
	KindDeliver
	// KindWindowSend is the coordinator fanning one window frame out to
	// every worker. Its Seq is the window barrier sequence — the anchor
	// MergeTracks aligns worker tracks against.
	KindWindowSend
	// KindAwaitBarrier is the coordinator blocked collecting done
	// frames for one window barrier.
	KindAwaitBarrier
	// KindHeal is the coordinator re-admitting a reconnecting worker
	// inside a barrier: re-adoption, the request re-sent, its reply.
	KindHeal
	// KindCheckpoint is one cluster checkpoint round (snapshot barrier
	// plus persistence).
	KindCheckpoint
	// KindSkip marks the coordinator jumping idle lookahead windows;
	// Seq carries how many windows were skipped.
	KindSkip
	// KindRecovery is a rollback-recovery round: restoring the cluster
	// from the last checkpoint after a worker loss.
	KindRecovery
	// KindMigrate is one live LP migration at a window barrier: donor
	// state extraction, transfer, and receiver adoption. Seq carries the
	// migrated LP's id.
	KindMigrate
	// KindReadopt is the coordinator re-adopting one surviving worker
	// (coord-hello/readopt handshake), after a restart or a broken
	// connection. Seq carries the slot.
	KindReadopt
)

// String returns the Chrome-trace event name for the kind.
func (k Kind) String() string {
	switch k {
	case KindExec:
		return "exec"
	case KindSchedule:
		return "schedule"
	case KindCancel:
		return "cancel"
	case KindBarrierWait:
		return "barrier-wait"
	case KindWindowBusy:
		return "window-busy"
	case KindDeliver:
		return "deliver"
	case KindWindowSend:
		return "window-send"
	case KindAwaitBarrier:
		return "await-barrier"
	case KindHeal:
		return "heal"
	case KindCheckpoint:
		return "checkpoint"
	case KindSkip:
		return "skip"
	case KindRecovery:
		return "recovery"
	case KindMigrate:
		return "migrate"
	case KindReadopt:
		return "readopt"
	}
	return "?"
}

// Span is one fixed-size trace record. Marks (schedule, cancel) have
// Dur == 0; spans (exec, barrier-wait, window-busy) carry a wall-clock
// duration.
type Span struct {
	// Wall is the wall-clock start in nanoseconds since the package
	// epoch (see Now).
	Wall int64
	// Dur is the wall-clock duration in nanoseconds (0 for marks).
	Dur int64
	// Time is the simulation time associated with the record.
	Time float64
	// Seq is the event sequence number (0 when not event-bound).
	Seq uint64
	// Label is the model-supplied trace label.
	Label string
	// Track identifies the LP or worker the record belongs to.
	Track int32
	// Queue is the pending-event queue length after the operation.
	Queue int32
	// Kind classifies the record.
	Kind Kind
}

// Recorder is a pre-sized ring buffer of Spans. When full it
// overwrites the oldest records (keeping the most recent window) and
// counts the overwritten ones as dropped. Record is allocation-free;
// Spans (the export path) allocates a fresh ordered copy.
//
// A Recorder is not synchronized: it must have a single writer at any
// moment. The federation gives each LP and each worker its own.
type Recorder struct {
	spans []Span
	mask  uint64
	next  uint64 // total records ever written
}

// NewRecorder returns a recorder holding the most recent `capacity`
// spans (rounded up to a power of two). It panics on capacity <= 0.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		panic("obs: NewRecorder with non-positive capacity")
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &Recorder{spans: make([]Span, c), mask: uint64(c - 1)}
}

// Record appends one span, overwriting the oldest when full.
func (r *Recorder) Record(s Span) {
	r.spans[r.next&r.mask] = s
	r.next++
}

// Len returns the number of spans currently retained.
func (r *Recorder) Len() int {
	if r.next < uint64(len(r.spans)) {
		return int(r.next)
	}
	return len(r.spans)
}

// Dropped returns how many spans were overwritten by ring wraparound.
func (r *Recorder) Dropped() uint64 {
	if r.next < uint64(len(r.spans)) {
		return 0
	}
	return r.next - uint64(len(r.spans))
}

// Cap returns the ring capacity in spans.
func (r *Recorder) Cap() int { return len(r.spans) }

// Reset discards all recorded spans, keeping the backing array.
func (r *Recorder) Reset() { r.next = 0 }

// Spans returns the retained spans in record order (oldest first) as a
// freshly allocated slice.
func (r *Recorder) Spans() []Span {
	n := r.Len()
	out := make([]Span, n)
	if r.next <= uint64(len(r.spans)) {
		copy(out, r.spans[:n])
		return out
	}
	head := r.next & r.mask // oldest retained record
	k := copy(out, r.spans[head:])
	copy(out[k:], r.spans[:head])
	return out
}

// Metrics is the engine-level histogram set recorded when latency
// metrics are enabled. Like Recorder it is single-writer; merge copies
// at export time.
type Metrics struct {
	// Exec is event-callback wall time in nanoseconds.
	Exec Histogram
	// Dwell is queue dwell time — simulation time from schedule to
	// fire — in nano-units of simulation time (sim time × 1e9), so the
	// same log-bucketed histogram covers both domains.
	Dwell Histogram
}
