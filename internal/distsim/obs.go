package distsim

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/winsync"
)

// This file threads internal/obs through the distributed stack:
// transport counters on every connection, snapshots of what a worker's
// group recorded piggybacked on done frames, and coordinator-side
// aggregation into cluster histograms plus a merged timeline.
//
// The obs contract of the single-process engine carries over intact:
// with observability off the only cost anywhere is a nil check, and
// with it on the steady-state window loop — recording, delta
// encoding, folding — does not allocate. Transport counters are the
// one always-on piece: they are plain atomics bumped once per frame
// (not per event), which is noise next to a TCP round trip, and a
// link that was never observed still has its story to tell after the
// fact.

// wireStats counts transport-level traffic and faults on one session.
// All fields are atomics: a worker's heartbeat goroutine sends
// concurrently with its main loop, and a metrics endpoint reads
// concurrently with both.
type wireStats struct {
	FramesSent    atomic.Uint64
	BytesSent     atomic.Uint64
	FramesRecv    atomic.Uint64
	BytesRecv     atomic.Uint64
	Heartbeats    atomic.Uint64 // heartbeat frames sent or received
	Retransmits   atomic.Uint64 // requests re-sent after a re-adoption, replies sent again from the kept one
	Resumes       atomic.Uint64 // re-adoption handshakes completed
	DupFrames     atomic.Uint64 // sequenced frames dropped by number
	CorruptFrames atomic.Uint64 // CRC/length/parse failures (chaos faults observed)
	ConnFailures  atomic.Uint64 // transport read/write errors
	BackoffNs     atomic.Uint64 // wall ns slept in dial/reconnect backoff
}

// Snapshot returns a plain-value copy of the counters.
func (w *wireStats) Snapshot() LinkStats {
	var s LinkStats
	f := s.fields()
	for i, c := range w.counters() {
		*f[i] = c.Load()
	}
	return s
}

// absorb folds another counter set into w (used when a session link
// adopts a freshly handshaken connection).
func (w *wireStats) absorb(o *wireStats) {
	oc := o.counters()
	for i, c := range w.counters() {
		c.Add(oc[i].Load())
	}
}

// nWireStats is how many transport counters a session keeps. counters
// and fields are the one list of them, in wire order: the order both
// structs declare them in (TestWireStatsOneList).
const nWireStats = 11

func (w *wireStats) counters() [nWireStats]*atomic.Uint64 {
	return [...]*atomic.Uint64{&w.FramesSent, &w.BytesSent, &w.FramesRecv, &w.BytesRecv,
		&w.Heartbeats, &w.Retransmits, &w.Resumes, &w.DupFrames,
		&w.CorruptFrames, &w.ConnFailures, &w.BackoffNs}
}

func (s *LinkStats) fields() [nWireStats]*uint64 {
	return [...]*uint64{&s.FramesSent, &s.BytesSent, &s.FramesRecv, &s.BytesRecv,
		&s.Heartbeats, &s.Retransmits, &s.Resumes, &s.DupFrames,
		&s.CorruptFrames, &s.ConnFailures, &s.BackoffNs}
}

// LinkStats is the plain-value (wire/JSON) form of a session's
// transport counters.
type LinkStats struct {
	FramesSent    uint64 `json:"frames_sent"`
	BytesSent     uint64 `json:"bytes_sent"`
	FramesRecv    uint64 `json:"frames_recv"`
	BytesRecv     uint64 `json:"bytes_recv"`
	Heartbeats    uint64 `json:"heartbeats"`
	Retransmits   uint64 `json:"retransmits"`
	Resumes       uint64 `json:"resumes"`
	DupFrames     uint64 `json:"dup_frames"`
	CorruptFrames uint64 `json:"corrupt_frames"`
	ConnFailures  uint64 `json:"conn_failures"`
	BackoffNs     uint64 `json:"backoff_ns"`
}

func (s *LinkStats) add(o LinkStats) {
	of := o.fields()
	for i, f := range s.fields() {
		*f += *of[i]
	}
}

func (s LinkStats) appendTo(enc *checkpoint.Enc) {
	for _, f := range s.fields() {
		enc.U64(*f)
	}
}

func decLinkStats(d *checkpoint.Dec) LinkStats {
	var s LinkStats
	for _, f := range s.fields() {
		*f = d.U64()
	}
	return s
}

// Obs snapshot payload tags (first uvarint of frame.Obs).
const (
	obsDelta = 1 // periodic piggyback: counters + histogram deltas
	obsFinal = 2 // stats frame: delta plus the full trace rings
)

// workerObs is what a worker needs to ship its group's observations:
// the cadence, the previous-ship histogram copies behind the delta
// encoding and the reused buffer. The worker records nothing itself —
// per-LP rings and metrics, per-thread phases and the window phases
// (deliver, busy, barrier wait) are the group's
// (winsync.Group.EnableObservability). Enabled by the coordinator's
// config frame (ObsEvery, ObsSpans > 0).
type workerObs struct {
	every int

	prevExec    obs.Histogram
	prevDwell   obs.Histogram
	prevBarrier obs.Histogram
	prevDeliver obs.Histogram

	buf     []byte // reused snapshot encode buffer
	windows uint64 // windows executed since enable
}

// encodeObs builds one snapshot payload into the reused buffer:
// transport counters (cumulative), ring-drop total, and the four
// histogram deltas since the previous ship — callback, dwell, and the
// group's barrier wait and deliver. The final form appends the trace
// rings. The delta path allocates nothing once the buffer has warmed up
// (TestObsPiggybackZeroAlloc).
func (w *Worker) encodeObs(final bool) []byte {
	wo := w.obs
	enc := checkpoint.NewEnc(wo.buf)
	if final {
		enc.U64(obsFinal)
	} else {
		enc.U64(obsDelta)
	}
	w.wire.Snapshot().appendTo(&enc)
	// The group's totals cover every LP it owns or has owned, so they
	// are monotone over time whatever migration and rollback do, and the
	// delta encoding stays valid.
	merged, dropped := w.g.Totals()
	deliver, _, wait, _ := w.g.Phases()
	enc.U64(dropped)
	merged.Exec.AppendDelta(&enc, &wo.prevExec)
	merged.Dwell.AppendDelta(&enc, &wo.prevDwell)
	wait.AppendDelta(&enc, &wo.prevBarrier)
	deliver.AppendDelta(&enc, &wo.prevDeliver)
	wo.prevExec = merged.Exec
	wo.prevDwell = merged.Dwell
	wo.prevBarrier = wait
	wo.prevDeliver = deliver
	// Per-LP cumulative counters (executed events, busy wall time) — the
	// load signal the adaptive partitioner surfaces in live metrics (a
	// done frame's Loads are the same counters as deltas).
	enc.Int(len(w.g.LPs()))
	for _, lp := range w.g.LPs() {
		enc.Int(lp.ID)
		enc.U64(lp.E.Stats().Executed)
		enc.U64(lp.BusyNs())
	}
	if final {
		// The group's window track is track 0, then its LP tracks, then —
		// for a real pool; a single thread's phases are inside the
		// window track's already — one track per pool thread.
		tracks, threads := w.g.Tracks()
		if w.Threads > 1 {
			tracks = append(tracks, threads...)
		}
		enc.Int(len(tracks))
		for _, tr := range tracks {
			obs.AppendSpanTrack(&enc, obs.SpanTrack{Name: tr.Name, TID: tr.TID, Spans: tr.Rec.Spans()})
		}
	}
	wo.buf = enc.Bytes()
	return wo.buf
}

// ClusterObs is the coordinator's aggregation point: cluster-level
// histograms folded from worker snapshots, per-slot transport
// counters, the coordinator's own window-phase recorder, and the
// shipped worker trace rings. The mutex covers everything a live
// metrics endpoint reads; the recorder itself is written only by the
// coordinator goroutine and exported only after Serve returns.
type ClusterObs struct {
	every   int
	spanCap int
	rec     *obs.Recorder

	mu          sync.Mutex
	exec        obs.Histogram
	dwell       obs.Histogram
	barrierWait obs.Histogram
	deliver     obs.Histogram
	slots       []slotObs
	coordLinks  []*wireStats
	tracks      [][]obs.SpanTrack
	run         Counters
}

type slotObs struct {
	wire         LinkStats        // worker-reported cumulative transport counters
	spansDropped uint64           // worker-reported ring overwrites
	snapshots    uint64           // obs payloads folded from this slot
	perLP        []partition.Load // worker-reported cumulative per-LP counters (reused)
}

// EnableObservability turns on cluster-wide recording for subsequent
// Serve calls: the coordinator records its window-phase spans, and the
// config frame instructs every worker to record and to piggyback a
// snapshot every `every` windows into rings of `spanCap` spans
// (non-positive arguments pick defaults: every 4 windows, 4096
// spans). Call before Serve; the returned handle stays valid across
// runs and is safe to Snapshot concurrently.
func (c *Coordinator) EnableObservability(every, spanCap int) *ClusterObs {
	if every <= 0 {
		every = 4
	}
	if spanCap <= 0 {
		spanCap = 1 << 12
	}
	co := &ClusterObs{every: every, spanCap: spanCap, rec: obs.NewRecorder(spanCap)}
	c.Obs = co
	return co
}

// bind sizes the per-slot state and exposes the coordinator-side link
// counters to the snapshot endpoint.
func (co *ClusterObs) bind(links []*wireStats) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if len(co.slots) < len(links) {
		co.slots = append(co.slots, make([]slotObs, len(links)-len(co.slots))...)
		co.tracks = append(co.tracks, make([][]obs.SpanTrack, len(links)-len(co.tracks))...)
	}
	co.coordLinks = links
}

// span records one coordinator-phase span; coordinator goroutine only.
func (co *ClusterObs) span(k obs.Kind, wall, dur int64, seq uint64, t float64) {
	co.rec.Record(obs.Span{Wall: wall, Dur: dur, Time: t, Seq: seq, Kind: k})
}

// note mirrors the run counters, whole, under the mutex, so a live
// endpoint sees window progress without racing the coordinator.
func (co *ClusterObs) note(run Counters) {
	co.mu.Lock()
	co.run = run
	co.mu.Unlock()
}

// fold merges one worker snapshot payload (frame.Obs) into the
// cluster aggregates. Counters are cumulative (overwrite), histograms
// travel as deltas (add). The payload aliases the link's read buffer,
// so fold runs before the next read — and allocates nothing on the
// delta path.
func (co *ClusterObs) fold(slot int, payload []byte) error {
	d := checkpoint.NewDec(payload)
	tag := d.U64()
	if tag != obsDelta && tag != obsFinal {
		return fmt.Errorf("%w: obs snapshot tag %d", ErrMalformedFrame, tag)
	}
	ls := decLinkStats(d)
	drops := d.U64()
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: obs snapshot: %v", ErrMalformedFrame, err)
	}
	co.mu.Lock()
	if slot >= len(co.slots) {
		co.mu.Unlock()
		return fmt.Errorf("distsim: obs snapshot for unbound slot %d", slot)
	}
	co.slots[slot].wire = ls
	co.slots[slot].spansDropped = drops
	co.slots[slot].snapshots++
	err := co.exec.MergeDelta(d)
	if err == nil {
		err = co.dwell.MergeDelta(d)
	}
	if err == nil {
		err = co.barrierWait.MergeDelta(d)
	}
	if err == nil {
		err = co.deliver.MergeDelta(d)
	}
	if err == nil {
		// Per-LP cumulative counters: overwrite (like the wire
		// counters), reusing the slot's slice so the steady-state fold
		// stays allocation-free.
		var n int
		if n, err = decCount(d, "per-LP load"); err == nil {
			per := co.slots[slot].perLP[:0]
			for i := 0; i < n; i++ {
				per = append(per, partition.Load{
					LP:     d.Int(),
					Events: d.U64(),
					BusyNs: d.U64(),
				})
			}
			co.slots[slot].perLP = per
			err = d.Err()
		}
	}
	co.mu.Unlock()
	if err != nil {
		return fmt.Errorf("%w: obs snapshot: %v", ErrMalformedFrame, err)
	}
	if tag == obsFinal {
		n, err := decCount(d, "track")
		if err != nil {
			return fmt.Errorf("%w: obs snapshot: %v", ErrMalformedFrame, err)
		}
		trs := make([]obs.SpanTrack, 0, n)
		for i := 0; i < n; i++ {
			tr, err := obs.DecodeSpanTrack(d)
			if err != nil {
				return fmt.Errorf("%w: obs snapshot track: %v", ErrMalformedFrame, err)
			}
			trs = append(trs, tr)
		}
		co.mu.Lock()
		co.tracks[slot] = trs
		co.mu.Unlock()
	}
	return nil
}

// HistSummary is the JSON-friendly digest of one cluster histogram.
type HistSummary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P90Ns  float64 `json:"p90_ns"`
	P99Ns  float64 `json:"p99_ns"`
	MaxNs  int64   `json:"max_ns"`
}

func summarize(h *obs.Histogram) HistSummary {
	return HistSummary{
		Count:  h.Count(),
		MeanNs: h.Mean(),
		P50Ns:  h.Quantile(0.5),
		P90Ns:  h.Quantile(0.9),
		P99Ns:  h.Quantile(0.99),
		MaxNs:  h.Max(),
	}
}

// WorkerObsView is one slot's worker-reported state in a snapshot.
type WorkerObsView struct {
	Slot         int              `json:"slot"`
	Wire         LinkStats        `json:"wire"`
	SpansDropped uint64           `json:"spans_dropped"`
	Snapshots    uint64           `json:"snapshots"`
	PerLP        []partition.Load `json:"per_lp,omitempty"`
}

// ClusterSnapshot is a point-in-time JSON-friendly view of the
// aggregated cluster state — what the -metrics-addr endpoint serves.
type ClusterSnapshot struct {
	Counters
	Exec         HistSummary     `json:"exec"`
	Dwell        HistSummary     `json:"dwell"`
	BarrierWait  HistSummary     `json:"barrier_wait"`
	Deliver      HistSummary     `json:"deliver"`
	CoordWire    LinkStats       `json:"coord_wire"`
	CoordDropped uint64          `json:"coord_spans_dropped"`
	SpansDropped uint64          `json:"spans_dropped"` // workers + coordinator
	Workers      []WorkerObsView `json:"workers"`
}

// Snapshot digests the current aggregates. Safe to call from any
// goroutine while a run is in progress.
func (co *ClusterObs) Snapshot() ClusterSnapshot {
	co.mu.Lock()
	defer co.mu.Unlock()
	s := ClusterSnapshot{
		Counters:     co.run,
		Exec:         summarize(&co.exec),
		Dwell:        summarize(&co.dwell),
		BarrierWait:  summarize(&co.barrierWait),
		Deliver:      summarize(&co.deliver),
		CoordDropped: co.rec.Dropped(),
	}
	for _, ws := range co.coordLinks {
		s.CoordWire.add(ws.Snapshot())
	}
	s.SpansDropped = s.CoordDropped
	for i := range co.slots {
		s.SpansDropped += co.slots[i].spansDropped
		s.Workers = append(s.Workers, WorkerObsView{
			Slot:         i,
			Wire:         co.slots[i].wire,
			SpansDropped: co.slots[i].spansDropped,
			Snapshots:    co.slots[i].snapshots,
			PerLP:        slices.Clone(co.slots[i].perLP),
		})
	}
	return s
}

// Histograms returns copies of the four cluster histograms (exec,
// dwell, barrier wait, deliver) for report tables.
func (co *ClusterObs) Histograms() (exec, dwell, barrierWait, deliver obs.Histogram) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.exec, co.dwell, co.barrierWait, co.deliver
}

// WriteMergedTrace exports the whole cluster as one Chrome/Perfetto
// trace: the coordinator's window-phase track plus every worker's
// shipped tracks, aligned onto the coordinator's clock by window barrier
// sequence (see obs.MergeTracks). Worker tracks are namespaced
// "w<slot>/..." with tid 1000*(slot+1)+local. Call after Serve
// returns (the coordinator recorder is single-writer).
func (co *ClusterObs) WriteMergedTrace(w io.Writer) error {
	co.mu.Lock()
	groups := make([][]obs.SpanTrack, 0, len(co.tracks))
	for s, trs := range co.tracks {
		if len(trs) == 0 {
			continue
		}
		g := make([]obs.SpanTrack, len(trs))
		for i, tr := range trs {
			g[i] = obs.SpanTrack{
				Name:  fmt.Sprintf("w%d/%s", s, tr.Name),
				TID:   1000*(s+1) + tr.TID,
				Spans: tr.Spans,
			}
		}
		groups = append(groups, g)
	}
	co.mu.Unlock()
	ref := []obs.SpanTrack{{Name: "coordinator", TID: 0, Spans: co.rec.Spans()}}
	merged := obs.MergeTracks(ref, groups...)
	return obs.WriteChromeTraceSpans(w, merged...)
}

// ObsPiggybackBench drives one steady-state snapshot cycle — worker
// delta encode plus coordinator fold — in isolation. Exported for
// lsbench's obs.piggyback_ns probe; BenchmarkObsPiggyback and the
// zero-alloc test use it too. Not part of the simulation API.
type ObsPiggybackBench struct {
	w   *Worker
	co  *ClusterObs
	seq uint64 // windows cycled
}

func NewObsPiggybackBench() *ObsPiggybackBench {
	pb := &ObsPiggybackBench{
		w:  NewWorker(0, 1, 2),
		co: &ClusterObs{every: 1, spanCap: 1 << 10, rec: obs.NewRecorder(1 << 10)},
	}
	pb.w.obs = &workerObs{every: 1}
	g := winsync.NewGroup(pb.w.ids, 3, 1, 1)
	g.EnableObservability(1 << 10)
	for _, lp := range g.LPs() {
		lp.OnMessage = func(winsync.Event) {}
	}
	// One thread: the pool runs every window inline and starts no
	// goroutine, so the bench needs no Stop.
	if err := g.Start(1); err != nil {
		panic(err)
	}
	pb.w.g = g
	pb.co.bind([]*wireStats{&pb.w.wire})
	return pb
}

// Cycle observes a plausible window's worth of samples — the group
// times an empty window's deliver, busy stretch and barrier wait itself
// — encodes the delta, and folds it; it returns the payload size. The
// first call warms the encode buffer; thereafter the cycle is
// allocation-free.
func (pb *ObsPiggybackBench) Cycle() (int, error) {
	wire, g, lps := &pb.w.wire, pb.w.g, pb.w.g.LPs()
	wire.FramesSent.Add(2)
	wire.BytesSent.Add(512)
	wire.FramesRecv.Add(2)
	wire.BytesRecv.Add(512)
	lps[0].E.Observer().Metrics.Exec.Observe(1500)
	lps[1].E.Observer().Metrics.Exec.Observe(8200)
	lps[2].E.Observer().Metrics.Dwell.Observe(1 << 20)
	pb.seq++
	g.Deliver(nil)
	g.RunWindow(float64(pb.seq), pb.seq)
	g.Flush(nil)
	payload := pb.w.encodeObs(false)
	return len(payload), pb.co.fold(0, payload)
}
