package distsim

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// The cluster-observability suite: enabling full telemetry — per-window
// histogram piggybacks, trace rings, transport counters, merged trace
// export — changes no simulation output bit (TestFaultMatrix's obs=on
// cells, on every layout and under every fault), and what it records
// adds up (here, on a clean dense run). It also pins the steady-state
// piggyback path at zero allocations and the partial-stats semantics
// when a worker dies at shutdown.

// executed sums the engine-level event counts over the workers.
func executed(c *Coordinator) (n uint64) {
	for _, ws := range c.WorkerStats {
		n += ws.EventsExecuted
	}
	return n
}

// TestClusterObsBitIdentical is the core contract: a dense run with
// observability on is bit-identical to the fault-free single-process
// reference, the aggregated exec histogram accounts for every engine
// event, and the merged Perfetto trace survives the strict re-parser
// and aligns every worker on the coordinator. Its cadence is 2, so the
// stats frame must carry the tail no piggyback did; TestFaultMatrix's
// observed cells run cadence 1.
func TestClusterObsBitIdentical(t *testing.T) {
	t.Parallel()
	c := ceScn.coordinator(nil)
	co := c.EnableObservability(2, 1<<10)
	launch(t, c, ceScn.pair())

	wantCounts(t, "observed run", c, ceScn.reference())
	if c.StatsIncomplete {
		t.Fatal("clean run flagged incomplete stats")
	}

	snap := co.Snapshot()
	if snap.Windows == 0 || snap.Windows != uint64(c.Windows) {
		t.Fatalf("snapshot windows %d, coordinator %d", snap.Windows, c.Windows)
	}
	if n := executed(c); snap.Exec.Count != n {
		t.Fatalf("cluster exec histogram has %d samples, workers executed %d events", snap.Exec.Count, n)
	}
	if snap.BarrierWait.Count == 0 || snap.Deliver.Count == 0 {
		t.Fatalf("empty phase histograms: barrier %d deliver %d",
			snap.BarrierWait.Count, snap.Deliver.Count)
	}
	if snap.CoordWire.FramesSent == 0 || snap.CoordWire.FramesRecv == 0 {
		t.Fatal("coordinator wire counters did not move")
	}
	for _, wv := range snap.Workers {
		if wv.Snapshots == 0 {
			t.Fatalf("slot %d shipped no telemetry snapshots", wv.Slot)
		}
		if wv.Wire.FramesSent == 0 {
			t.Fatalf("slot %d wire counters did not move", wv.Slot)
		}
	}

	var buf bytes.Buffer
	if err := co.WriteMergedTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, tids, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("merged trace does not re-parse: %v", err)
	}
	// Coordinator track + per worker: window track + 3 LP tracks.
	if wantTracks := 1 + 2*4; len(tids) != wantTracks {
		t.Fatalf("merged trace has %d tracks, want %d", len(tids), wantTracks)
	}
	if events == 0 {
		t.Fatal("merged trace is empty")
	}
	wantAligned(t, c, co)
}

// wantAligned checks what each worker shipped of its windows: track 0 is
// its group's window track with one busy anchor per executed window, and
// obs.MergeTracks aligns every worker on the coordinator — no anchor
// lands before the coordinator sent its window, and the latest-possible
// offset puts one exactly on its send (a worker merged unshifted would
// have none there).
func wantAligned(t *testing.T, c *Coordinator, co *ClusterObs) {
	t.Helper()
	ref := []obs.SpanTrack{{Name: "coordinator", Spans: co.rec.Spans()}}
	sent := map[uint64]int64{}
	for _, s := range ref[0].Spans {
		if _, ok := sent[s.Seq]; s.Kind == obs.KindWindowSend && !ok {
			sent[s.Seq] = s.Wall
		}
	}
	for slot, trs := range co.tracks {
		if len(trs) == 0 || trs[0].Name != "window" {
			t.Fatalf("slot %d shipped no window track first", slot)
		}
		anchors := map[uint64]bool{}
		for _, s := range trs[0].Spans {
			if s.Kind == obs.KindWindowBusy {
				if anchors[s.Seq] {
					t.Fatalf("slot %d: two busy anchors for window %d", slot, s.Seq)
				}
				anchors[s.Seq] = true
			}
		}
		if uint64(len(anchors)) != c.Windows {
			t.Fatalf("slot %d: %d busy anchors, %d windows executed", slot, len(anchors), c.Windows)
		}
		merged := obs.MergeTracks(ref, trs[:1])
		onSend := false
		for _, s := range merged[1].Spans {
			if s.Kind != obs.KindWindowBusy {
				continue
			}
			switch w := sent[s.Seq]; {
			case s.Wall < w:
				t.Fatalf("slot %d: window %d busy at %d, before the coordinator sent it at %d", slot, s.Seq, s.Wall, w)
			case s.Wall == w:
				onSend = true
			}
		}
		if !onSend {
			t.Fatalf("slot %d was not aligned on the coordinator's sends", slot)
		}
	}
}

// fakeWorker speaks just enough of the protocol to drive a run from
// the test: register, answer every window with an empty done frame,
// and at stop either return proper stats or vanish (the satellite-2
// scenario — a worker dying between its last barrier and the stats
// exchange).
func fakeWorker(sm *sim, ln *simListener, lps []int, sendStats bool) error {
	conn, err := ln.dial(0)
	if err != nil {
		return err
	}
	p := newPeer(sm, conn)
	l := newLink(p)
	defer l.close()
	if err := l.send(&frame{Kind: frameRegister, LPs: lps}); err != nil {
		return err
	}
	for {
		f, err := l.recv(10 * time.Second)
		if err != nil {
			return err
		}
		switch f.Kind {
		case frameConfig:
			// run parameters acknowledged implicitly by the first done
		case frameWindow:
			if err := l.send(&frame{Kind: frameDone, Next: math.Inf(1)}); err != nil {
				return err
			}
		case frameStop:
			if !sendStats {
				return nil // die silently: no stats frame, no bye
			}
			st := WorkerStats{LPs: lps, EventsExecuted: 7, PerLPCounts: map[int]uint64{lps[0]: 7}}
			if err := l.send(&frame{Kind: frameStats, Stats: st}); err != nil {
				return err
			}
		case frameBye:
			return nil
		}
	}
}

// TestStatsIncomplete pins the satellite-2 contract: when a worker
// dies between the final barrier and the stats exchange, Serve still
// returns nil, the surviving worker's stats are aggregated, and the
// dead slot carries an explicit Incomplete placeholder instead of
// poisoning the whole result.
func TestStatsIncomplete(t *testing.T) {
	t.Parallel()
	sm := newSim(t)
	ln := sm.listen()
	c := NewCoordinator(2, 1.0, 5, 99)
	co := c.EnableObservability(1, 1<<8)
	sm.attach(c)
	err := sm.run(func() error {
		a := sm.start(func() error { return fakeWorker(sm, ln, []int{0}, true) })
		b := sm.start(func() error { return fakeWorker(sm, ln, []int{1}, false) })
		return errors.Join(c.Serve(ln, 2), a.wait(), b.wait())
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}

	if !c.StatsIncomplete {
		t.Fatal("coordinator did not flag incomplete stats")
	}
	if len(c.WorkerStats) != 2 {
		t.Fatalf("got %d worker stats slots, want 2", len(c.WorkerStats))
	}
	var sawComplete, sawIncomplete bool
	for _, ws := range c.WorkerStats {
		if ws.Incomplete {
			sawIncomplete = true
			if len(ws.LPs) != 1 {
				t.Fatalf("incomplete placeholder lost its LP set: %v", ws.LPs)
			}
			if ws.EventsExecuted != 0 {
				t.Fatalf("incomplete placeholder carries stats: %+v", ws)
			}
		} else {
			sawComplete = true
			if ws.EventsExecuted != 7 {
				t.Fatalf("surviving worker stats mangled: %+v", ws)
			}
		}
	}
	if !sawComplete || !sawIncomplete {
		t.Fatalf("want one complete and one incomplete slot, got %+v", c.WorkerStats)
	}
	if snap := co.Snapshot(); !snap.StatsIncomplete {
		t.Fatal("cluster snapshot did not mirror the incomplete flag")
	}
}

// TestObsPiggybackZeroAlloc pins the steady-state piggyback cycle —
// observe samples, delta-encode into the reused buffer, fold into the
// cluster aggregates — at zero heap allocations per window.
func TestObsPiggybackZeroAlloc(t *testing.T) {
	pb := NewObsPiggybackBench()
	// Warm-up: size the encode buffer and touch every histogram bucket
	// the steady state will use.
	for i := 0; i < 64; i++ {
		if _, err := pb.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := pb.Cycle(); err != nil {
			panic(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state obs piggyback allocates %.1f allocs/op, want 0", avg)
	}
}

// BenchmarkObsPiggyback measures the full worker-side encode +
// coordinator-side fold cycle and reports the piggyback payload size.
func BenchmarkObsPiggyback(b *testing.B) {
	pb := NewObsPiggybackBench()
	var bytesOut int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := pb.Cycle()
		if err != nil {
			b.Fatal(err)
		}
		bytesOut = n
	}
	b.ReportMetric(float64(bytesOut), "payload-bytes")
}

// TestWireStatsOneList pins the transport counter list: counters and
// fields name every field of their struct in declaration order, the two
// structs declare the same names, and a snapshot survives the wire codec
// and the sum field by field.
func TestWireStatsOneList(t *testing.T) {
	var w wireStats
	var s LinkStats
	wv, sv := reflect.ValueOf(&w).Elem(), reflect.ValueOf(&s).Elem()
	if wv.NumField() != nWireStats || sv.NumField() != nWireStats {
		t.Fatalf("wireStats has %d fields, LinkStats %d, the list %d", wv.NumField(), sv.NumField(), nWireStats)
	}
	wc, sf := w.counters(), s.fields()
	for i := 0; i < nWireStats; i++ {
		name := wv.Type().Field(i).Name
		if sv.Type().Field(i).Name != name {
			t.Errorf("field %d: wireStats.%s, LinkStats.%s", i, name, sv.Type().Field(i).Name)
		}
		if wv.Field(i).Addr().Interface() != wc[i] || sv.Field(i).Addr().Interface() != sf[i] {
			t.Errorf("the list's entry %d is not %s", i, name)
		}
		wc[i].Store(uint64(i + 1))
	}
	enc := checkpoint.NewEnc(nil)
	w.Snapshot().appendTo(&enc)
	got := decLinkStats(checkpoint.NewDec(enc.Bytes()))
	got.add(w.Snapshot())
	for i, f := range got.fields() {
		if *f != 2*uint64(i+1) {
			t.Errorf("%s: %d after codec and sum, want %d", sv.Type().Field(i).Name, *f, 2*(i+1))
		}
	}
}
