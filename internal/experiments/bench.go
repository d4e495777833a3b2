package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/distsim"
	"repro/internal/eventq"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/partition"
)

// BenchResult is one micro-benchmark measurement in the machine-readable
// report written by -benchjson. AllocsPerOp is the headline number for
// the zero-allocation hot-path claim (C2): a steady-state
// schedule/execute cycle must not allocate for any FEL kind.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra carries benchmark-specific metrics reported via
	// b.ReportMetric (e.g. snapshot_bytes for CheckpointSnapshot).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// benchCases enumerates the hot paths the perf claims rest on:
// schedule/execute per FEL kind, a cancel-heavy hold model, and the
// federation window loop at several worker counts.
func benchCases() []struct {
	name string
	fn   func(b *testing.B)
} {
	var cases []struct {
		name string
		fn   func(b *testing.B)
	}
	for _, k := range eventq.Kinds() {
		k := k
		cases = append(cases, struct {
			name string
			fn   func(b *testing.B)
		}{
			name: "ScheduleExecute/" + string(k),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				e := des.NewEngine(des.WithQueue(k))
				src := e.Stream("bench")
				const population = 1024
				count := 0
				var pump func()
				pump = func() {
					count++
					if count < b.N {
						e.Schedule(src.Exp(1), pump)
					}
				}
				for i := 0; i < population && i < b.N; i++ {
					e.Schedule(src.Exp(1), pump)
				}
				b.ResetTimer()
				e.Run()
			},
		})
	}
	// The traced variant pins the other half of the observability
	// contract: with the ring recorder and histograms attached,
	// steady-state recording is still allocation-free.
	cases = append(cases, struct {
		name string
		fn   func(b *testing.B)
	}{
		name: "ScheduleExecuteTraced/heap",
		fn: func(b *testing.B) {
			b.ReportAllocs()
			rec := obs.NewRecorder(1 << 14)
			met := &obs.Metrics{}
			e := des.NewEngine(des.WithObserver(des.Observer{Recorder: rec, Metrics: met}))
			src := e.Stream("bench")
			const population = 1024
			count := 0
			var pump func()
			pump = func() {
				count++
				if count < b.N {
					e.Schedule(src.Exp(1), pump)
				}
			}
			for i := 0; i < population && i < b.N; i++ {
				e.Schedule(src.Exp(1), pump)
			}
			b.ResetTimer()
			e.Run()
		},
	})
	cases = append(cases, struct {
		name string
		fn   func(b *testing.B)
	}{
		name: "HoldModelCancel",
		fn: func(b *testing.B) {
			b.ReportAllocs()
			e := des.NewEngine()
			src := e.Stream("bench")
			var decoy des.Timer
			count := 0
			var step func()
			step = func() {
				count++
				if count >= b.N {
					return
				}
				decoy.Cancel()
				decoy = e.Schedule(3+src.Float64(), func() {})
				e.Schedule(src.Exp(1), step)
			}
			e.Schedule(src.Exp(1), step)
			b.ResetTimer()
			e.Run()
		},
	})
	// CheckpointSnapshot measures the cost of one federation snapshot of
	// the E5-shaped PHOLD state — the per-barrier price of fault
	// tolerance. snapshot_bytes is the serialized size. The experiments
	// pin this below 5% of a window's wall time (see E5d).
	cases = append(cases, struct {
		name string
		fn   func(b *testing.B)
	}{
		name: "CheckpointSnapshot",
		fn: func(b *testing.B) {
			b.ReportAllocs()
			ph := parsim.NewPHOLD(e5LPs, 1, e5Lookahead, e5JobsPerLP, e5RemoteProb, e5Work, e5Seed)
			ph.Run(10) // jobs spread out, free lists warm
			var buf bytes.Buffer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := ph.Fed.Checkpoint(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "snapshot_bytes")
		},
	})
	// FrameOverhead prices the send path of a 64-event window frame:
	// the explicit codec plus length/seq/ack header and CRC32 trailer.
	// wire_bytes is the per-frame on-the-wire size.
	frameEvents := make([]distsim.Event, 64)
	for i := range frameEvents {
		frameEvents[i] = distsim.Event{
			Time: float64(i) * 0.25, From: i % 8, To: (i + 3) % 8,
			Seq: uint64(i + 1), Data: []byte{byte(i), byte(i >> 8), 0xab, 0xcd},
		}
	}
	cases = append(cases, struct {
		name string
		fn   func(b *testing.B)
	}{
		name: "FrameOverhead/framed",
		fn: func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(distsim.MarshalWindowWire(frameEvents, 10, uint64(i+1), uint64(i)))
			}
			b.ReportMetric(float64(n), "wire_bytes")
		},
	})
	for _, w := range []int{1, 2, 4} {
		w := w
		cases = append(cases, struct {
			name string
			fn   func(b *testing.B)
		}{
			name: fmt.Sprintf("FederationWindowOverhead/workers=%d", w),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				var f *parsim.Federation
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					f = parsim.NewFederation(8, 0.01, w, 7)
					for j := 0; j < f.LPs(); j++ {
						lp := f.LP(j)
						src := lp.E.Stream("sparse")
						lp.OnMessage = func(parsim.Message) {}
						var tick func()
						tick = func() { lp.E.Schedule(src.Exp(0.1), tick) }
						lp.E.Schedule(src.Exp(0.1), tick)
					}
					b.StartTimer()
					f.Run(10)
				}
				st := f.Snapshot().Pool
				b.ReportMetric(float64(st.Inline)/float64(st.Inline+st.Dispatched), "inline_frac")
			},
		})
	}
	// DistWindowThroughput prices one lookahead window of the real
	// TCP-distributed engine (coordinator + two loopback workers), so
	// ns/op is the per-window barrier cost and allocs/op the
	// coordinator-side allocations per window. The dense case is the E5
	// PHOLD mix; the sparse cases leave ~98% of windows empty, and the
	// skip variant lets the coordinator jump them — the ns/op ratio
	// between sparse-noskip and sparse-skip is the skipping speedup
	// (acceptance asks >= 1.5x; see BENCH_4.json). skipped_per_op
	// reports skipped windows per lattice slot.
	for _, cfg := range []struct {
		name   string
		jobs   int
		factor float64
		skip   bool
	}{
		{"DistWindowThroughput/dense", 6, 4, false},
		{"DistWindowThroughput/sparse-noskip", 1, 64, false},
		{"DistWindowThroughput/sparse-skip", 1, 64, true},
	} {
		cfg := cfg
		cases = append(cases, struct {
			name string
			fn   func(b *testing.B)
		}{
			name: cfg.name,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				const (
					lps    = 6
					la     = 0.5
					remote = 0.4
					work   = 5
					seed   = 1234
				)
				c := distsim.NewCoordinator(lps, la, la*float64(b.N), seed)
				c.SkipIdle = cfg.skip
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer ln.Close()
				workers := []*distsim.Worker{distsim.NewWorker(0, 1, 2), distsim.NewWorker(3, 4, 5)}
				for _, w := range workers {
					distsim.InstallPHOLDFactor(w, lps, cfg.jobs, remote, work, cfg.factor)
				}
				errs := make(chan error, len(workers))
				b.ResetTimer()
				for _, w := range workers {
					w := w
					go func() { errs <- w.Run(ln.Addr().String()) }()
				}
				if err := c.Serve(ln, len(workers)); err != nil {
					b.Fatal(err)
				}
				for range workers {
					if err := <-errs; err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(c.WindowsSkipped)/float64(b.N), "skipped_per_op")
				b.ReportMetric(float64(c.EventsRouted)/float64(b.N), "routed_per_op")
			},
		})
	}
	// SkewedWindowThroughput prices one lookahead window when the model
	// has a hot spot: LPs 0 and 1 fire 4x as often and hold their
	// worker 400us of wall time per event, and both start on worker 0.
	// The static case serializes the two holds on one worker every
	// window; the rebalance case lets the coordinator migrate one hot
	// LP to the idle worker, so the holds overlap — the ns/op ratio
	// static/rebalance is the adaptive-partitioning speedup (acceptance
	// asks >= 1.3x on this skew; see BENCH_6.json). migrations_per_run
	// proves the win came from actual live migrations.
	for _, cfg := range []struct {
		name      string
		rebalance bool
	}{
		{"SkewedWindowThroughput/static", false},
		{"SkewedWindowThroughput/rebalance", true},
	} {
		cfg := cfg
		cases = append(cases, struct {
			name string
			fn   func(b *testing.B)
		}{
			name: cfg.name,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				const (
					lps     = 6
					la      = 0.5
					jobs    = 16
					remote  = 0.2
					work    = 1
					seed    = 1234
					skewHot = 2
					skew    = 4.0
					holdNs  = 400_000
				)
				c := distsim.NewCoordinator(lps, la, la*float64(b.N), seed)
				if cfg.rebalance {
					c.Rebalance = &partition.Greedy{} // busy-ns weights see the holds
					c.RebalanceEvery = 4
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer ln.Close()
				workers := []*distsim.Worker{distsim.NewWorker(0, 1, 2), distsim.NewWorker(3, 4, 5)}
				for _, w := range workers {
					distsim.InstallPHOLDSkew(w, lps, jobs, remote, work, 4, skewHot, skew, holdNs)
				}
				errs := make(chan error, len(workers))
				b.ResetTimer()
				for _, w := range workers {
					w := w
					go func() { errs <- w.Run(ln.Addr().String()) }()
				}
				if err := c.Serve(ln, len(workers)); err != nil {
					b.Fatal(err)
				}
				for range workers {
					if err := <-errs; err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(c.Migrations), "migrations_per_run")
			},
		})
	}
	// WorkerWindowParallel prices one lookahead window of the
	// intra-worker execution pool, mirroring distsim's
	// BenchmarkWorkerWindowParallel: dense holds too little work to
	// share out, so the pool runs it inline at every width (inline_frac
	// near 1) and the trial windows are all that is left of the
	// dispatch-and-barrier overhead, and skewed gives the hot LPs a
	// 200us wall hold per event so the threads-4 over threads-1 ns/op
	// ratio is the intra-worker speedup (acceptance asks >= 1.3x on
	// this 4-LP skew; see BENCH_8.json).
	// Deliver runs outside the timed region, so allocs/op pins the
	// pooled outbox path — per-LP Send buffering plus the
	// canonical-order barrier flush — at zero.
	for _, load := range []struct {
		name   string
		hot    int
		skew   float64
		holdNs int
	}{
		{"dense", 0, 1, 0},
		{"skewed", 2, 4, 200_000},
	} {
		for _, threads := range []int{1, 2, 4} {
			load, threads := load, threads
			cases = append(cases, struct {
				name string
				fn   func(b *testing.B)
			}{
				name: fmt.Sprintf("WorkerWindowParallel/%s/threads-%d", load.name, threads),
				fn: func(b *testing.B) {
					b.ReportAllocs()
					h := distsim.NewWorkerWindowBench(threads, 4, 8, 0.3, 5, load.hot, load.skew, load.holdNs)
					defer h.Close()
					h.Window() // warm: size the buffers
					h.Deliver()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						h.Window()
						b.StopTimer()
						h.Deliver()
						b.StartTimer()
					}
					b.StopTimer()
					if h.Events() == 0 {
						b.Fatal("benchmark executed no events")
					}
					st := h.PoolStats()
					b.ReportMetric(float64(st.Inline)/float64(st.Inline+st.Dispatched), "inline_frac")
				},
			})
		}
	}
	// MigrationCost prices the worker half of one live LP migration
	// round trip (two extract+adopt transfers, no wire): the
	// coordinator-visible cost a migration adds to a window barrier.
	// state_bytes is the serialized LP payload per migration.
	cases = append(cases, struct {
		name string
		fn   func(b *testing.B)
	}{
		name: "MigrationCost",
		fn: func(b *testing.B) {
			b.ReportAllocs()
			mb := distsim.NewMigrationBench()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mb.Cycle(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(mb.StateBytes), "state_bytes")
			b.ReportMetric(2, "migrations_per_op")
		},
	})
	// DistWindowThroughput/e5-dense prices one lookahead window of the
	// TCP-distributed engine at the paper's E5 workload shape (8 LPs,
	// 16 jobs each, 30k synthetic work per event) — the representative
	// window wall time the fault-tolerance overhead claims divide by,
	// exactly as E5d does for sequential checkpointing. The stripped
	// work=5 cases above isolate barrier overhead; this one measures a
	// real window.
	cases = append(cases, struct {
		name string
		fn   func(b *testing.B)
	}{
		name: "DistWindowThroughput/e5-dense",
		fn: func(b *testing.B) {
			b.ReportAllocs()
			c := distsim.NewCoordinator(e5LPs, e5Lookahead, e5Lookahead*float64(b.N), e5Seed)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			workers := []*distsim.Worker{distsim.NewWorker(0, 1, 2, 3), distsim.NewWorker(4, 5, 6, 7)}
			for _, w := range workers {
				distsim.InstallPHOLDFactor(w, e5LPs, e5JobsPerLP, e5RemoteProb, e5Work, 4)
			}
			errs := make(chan error, len(workers))
			b.ResetTimer()
			for _, w := range workers {
				w := w
				go func() { errs <- w.Run(ln.Addr().String()) }()
			}
			if err := c.Serve(ln, len(workers)); err != nil {
				b.Fatal(err)
			}
			for range workers {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	// JournalAppend prices the per-barrier cost of the durable
	// control-plane journal (PR 9): one representative barrier record
	// appended and fsynced, the exact work a journaled coordinator adds
	// to every window. Acceptance pins this below 2% of a representative
	// window's wall time (the E5-shaped DistWindowThroughput/e5-dense
	// above — durability latency is fsync-bound, so the stripped work=5
	// microbench windows are not the meaningful denominator).
	// journal_bytes_per_op is the on-disk growth per barrier.
	cases = append(cases, struct {
		name string
		fn   func(b *testing.B)
	}{
		name: "JournalAppend",
		fn: func(b *testing.B) {
			b.ReportAllocs()
			dir, err := os.MkdirTemp("", "lsds-journal-bench")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			jb, err := distsim.NewJournalBench(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer jb.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := jb.Cycle(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(jb.Bytes())/float64(b.N), "journal_bytes_per_op")
		},
	})
	// ObsPiggyback prices one telemetry piggyback cycle — the worker
	// delta-encodes its histograms and counters, the coordinator folds
	// the payload into the cluster aggregates. This rides every K-th
	// done frame of an observed distributed run, so allocs/op must be 0
	// (the PR-7 zero-steady-state-allocation claim) and payload_bytes is
	// the wire cost added per piggyback.
	cases = append(cases, struct {
		name string
		fn   func(b *testing.B)
	}{
		name: "ObsPiggyback",
		fn: func(b *testing.B) {
			b.ReportAllocs()
			pb := distsim.NewObsPiggybackBench()
			var payload int
			for i := 0; i < 64; i++ { // warm the encode buffer + buckets
				if _, err := pb.Cycle(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := pb.Cycle()
				if err != nil {
					b.Fatal(err)
				}
				payload = n
			}
			b.StopTimer()
			b.ReportMetric(float64(payload), "payload_bytes")
		},
	})
	return cases
}

// RunBenchJSON executes the hot-path micro-benchmarks via
// testing.Benchmark and writes the results as a JSON array to path.
// This is how a CI job or the acceptance check records the
// allocation trajectory without parsing `go test -bench` text output.
func RunBenchJSON(path string) ([]BenchResult, error) {
	var out []BenchResult
	for _, c := range benchCases() {
		// Settle the heap between cases: garbage left by an allocating
		// bench would otherwise tax the GC during its successors and
		// skew their ns/op (everything shares one process here).
		runtime.GC()
		r := testing.Benchmark(c.fn)
		res := BenchResult{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Extra[k] = v
			}
		}
		out = append(out, res)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return out, nil
}
