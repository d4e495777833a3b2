package distsim

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// The cluster-observability suite pins the PR-2 contract extended to
// the distributed stack: enabling full telemetry — per-window
// histogram piggybacks, trace rings, transport counters, merged trace
// export — changes no simulation output bit, in the dense regime, in
// the sparse skip-idle regime, and under chaos faults. It also pins
// the steady-state piggyback path at zero allocations and the
// partial-stats semantics when a worker dies at shutdown.

// obsCeRun mirrors ceRun (chaos_e2e_test.go) with cluster
// observability enabled at the given cadence.
func obsCeRun(t *testing.T, every int, coordCfg, workerCfg *chaos.Config) (*Coordinator, *ClusterObs) {
	t.Helper()
	c := ceScn.coordinator(nil)
	co := c.EnableObservability(every, 1<<10)
	chaosLaunch(t, c, ceScn.pair(), coordCfg, workerCfg)
	return c, co
}

// executed sums the engine-level event counts over the workers.
func executed(c *Coordinator) (n uint64) {
	for _, ws := range c.WorkerStats {
		n += ws.EventsExecuted
	}
	return n
}

// TestClusterObsBitIdentical is the core contract: a dense run with
// full observability on (cadence 1, so every window piggybacks) is
// bit-identical to the fault-free single-process reference, the
// aggregated exec histogram accounts for every engine event, and the
// merged Perfetto trace survives the strict re-parser.
func TestClusterObsBitIdentical(t *testing.T) {
	t.Parallel()
	c, co := obsCeRun(t, 1, nil, nil)

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
	// Coordinator track + per worker: worker track + 3 LP tracks.
	if wantTracks := 1 + 2*4; len(tids) != wantTracks {
		t.Fatalf("merged trace has %d tracks, want %d", len(tids), wantTracks)
	}
	if events == 0 {
		t.Fatal("merged trace is empty")
	}
}

// TestClusterObsBitIdenticalUnderChaos repeats the contract with the
// fault injector attacking both directions of the wire: telemetry
// piggybacks ride the same sequenced frames as simulation traffic, so
// retransmissions and session resumes must not double-count or drop
// histogram deltas.
func TestClusterObsBitIdenticalUnderChaos(t *testing.T) {
	t.Parallel()
	c, co := obsCeRun(t, 2,
		&chaos.Config{Seed: 71, Drop: 0.03, Dup: 0.05, Corrupt: 0.02},
		&chaos.Config{Seed: 72, Drop: 0.03, Dup: 0.05, Corrupt: 0.02})

	wantCounts(t, "chaos+obs run", c, ceScn.reference())
	snap := co.Snapshot()
	// Deltas ride sequenced frames: exactly-once folding even when the
	// wire duplicated or dropped the carrier.
	if n := executed(c); snap.Exec.Count != n {
		t.Fatalf("cluster exec histogram has %d samples, workers executed %d events", snap.Exec.Count, n)
	}
	var buf bytes.Buffer
	if err := co.WriteMergedTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("merged chaos trace does not re-parse: %v", err)
	}
}

// TestClusterObsSparseSkipBitIdentical runs the sparse skip-idle
// regime with observability on: per-LP counts stay bit-identical to
// the single-process reference and the coordinator records skip marks.
func TestClusterObsSparseSkipBitIdentical(t *testing.T) {
	t.Parallel()
	c := skScn.coordinator(nil)
	co := c.EnableObservability(1, 1<<10)
	launch(t, c, skScn.pair())
	wantCounts(t, "skip+obs run", c, skScn.reference())
	if c.WindowsSkipped == 0 {
		t.Fatal("sparse observed run skipped no windows")
	}
	snap := co.Snapshot()
	if snap.WindowsSkipped != uint64(c.WindowsSkipped) {
		t.Fatalf("snapshot skipped %d, coordinator %d", snap.WindowsSkipped, c.WindowsSkipped)
	}
	var buf bytes.Buffer
	if err := co.WriteMergedTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("merged sparse trace does not re-parse: %v", err)
	}
}

// TestClusterObsAcrossMigration observes the skewed run while the
// rebalancer moves LPs between 2-thread workers: a migrated LP's history
// stays in its donor's carried totals and its new host starts a fresh
// ring, so the cluster exec histogram still accounts for every engine
// event exactly once, and the merged trace has one track per LP and
// per pool thread.
func TestClusterObsAcrossMigration(t *testing.T) {
	t.Parallel()
	c := mgScn.coordinator(rebalancing)
	co := c.EnableObservability(1, 1<<10)
	launch(t, c, mgScn.pair(threads(2)))
	if c.Migrations == 0 {
		t.Fatal("observed run rebalanced nothing")
	}
	wantCounts(t, "observed rebalanced run", c, mgScn.reference())
	if snap, n := co.Snapshot(), executed(c); snap.Exec.Count != n || snap.Dwell.Count != n {
		t.Fatalf("cluster exec/dwell histograms have %d/%d samples, workers executed %d events", snap.Exec.Count, snap.Dwell.Count, n)
	}
	var buf bytes.Buffer
	if err := co.WriteMergedTrace(&buf); err != nil {
		t.Fatal(err)
	}
	_, tids, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("merged trace does not re-parse: %v", err)
	}
	// Coordinator + per worker: serve loop + 2 pool threads; + 6 LPs.
	if want := 1 + 2*(1+2) + mgScn.model.TotalLPs; len(tids) != want {
		t.Fatalf("merged trace has %d tracks, want %d", len(tids), want)
	}
}

// fakeWorker speaks just enough of the protocol to drive a run from
// the test: register, answer every window with an empty done frame,
// and at stop either return proper stats or vanish (the satellite-2
// scenario — a worker dying between its last barrier and the stats
// exchange).
func fakeWorker(sm *sim, ln *simListener, lps []int, sendStats bool) error {
	conn, err := ln.dial()
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
	var w WireStats
	var s LinkStats
	wv, sv := reflect.ValueOf(&w).Elem(), reflect.ValueOf(&s).Elem()
	if wv.NumField() != nWireStats || sv.NumField() != nWireStats {
		t.Fatalf("WireStats has %d fields, LinkStats %d, the list %d", wv.NumField(), sv.NumField(), nWireStats)
	}
	wc, sf := w.counters(), s.fields()
	for i := 0; i < nWireStats; i++ {
		name := wv.Type().Field(i).Name
		if sv.Type().Field(i).Name != name {
			t.Errorf("field %d: WireStats.%s, LinkStats.%s", i, name, sv.Type().Field(i).Name)
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
