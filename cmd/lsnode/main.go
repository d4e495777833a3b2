// Command lsnode runs one node of a TCP-distributed simulation: either
// the coordinator or a worker owning a subset of the logical
// processes. The model is the PHOLD benchmark (the standard workload
// of the parallel/distributed DES literature).
//
// Example — 8 LPs across two workers on one machine:
//
//	lsnode -mode coordinator -addr :9191 -lps 8 -workers 2 -horizon 200 &
//	lsnode -mode worker -addr localhost:9191 -own 0,1,2,3 &
//	lsnode -mode worker -addr localhost:9191 -own 4,5,6,7
//
// The same binary works across hosts; the run is deterministic for a
// given seed regardless of how LPs are partitioned.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/distsim"
	"repro/internal/metrics"
	"repro/internal/monitoring"
	"repro/internal/parsim"
	"repro/internal/partition"
)

func main() {
	mode := flag.String("mode", "", "coordinator | worker")
	addr := flag.String("addr", "localhost:9191", "listen (coordinator) or dial (worker) address")
	lps := flag.Int("lps", 8, "total logical processes (coordinator)")
	workers := flag.Int("workers", 2, "worker count to wait for (coordinator)")
	lookahead := flag.Float64("lookahead", 1.0, "synchronization lookahead")
	horizon := flag.Float64("horizon", 200, "simulation end time")
	seed := flag.Uint64("seed", 1, "base seed")
	own := flag.String("own", "", "comma-separated LP IDs this worker owns (worker)")
	jobs := flag.Int("jobs", 8, "PHOLD jobs per LP")
	remote := flag.Float64("remote", 0.2, "PHOLD remote-hop probability")
	work := flag.Int("work", 100, "PHOLD per-event synthetic work")
	timeout := flag.Float64("timeout", 0, "coordinator: per-frame receive deadline in seconds (0 = 30s default, negative disables)")
	ckptEvery := flag.Int("ckpt-every", 0, "coordinator: cluster checkpoint every N windows (0 = every window when fault tolerance is on)")
	maxRec := flag.Int("max-recoveries", 0, "coordinator: worker crashes to survive by rollback-recovery")
	ckptFile := flag.String("checkpoint", "", "coordinator: persist cluster checkpoints to this file (atomic)")
	resumeFile := flag.String("resume", "", "coordinator: resume from this cluster checkpoint when it exists")
	journalFile := flag.String("journal", "", "coordinator: durable control-plane journal; restart with the same path to re-adopt surviving workers")
	verify := flag.Bool("verify", false, "coordinator: replay the run single-process after it finishes and require identical per-LP results")
	connRetries := flag.Int("connect-retries", 0, "worker: dial/handshake attempts per connect cycle (0 = 8 default, negative = single attempt)")
	connBackoff := flag.Duration("connect-backoff", 0, "worker: base delay of the capped exponential dial backoff (0 = 50ms default)")
	maxPark := flag.Int("max-park", 0, "worker: parked reconnect attempts to survive a coordinator restart (0 = 64 default, negative disables parking)")
	skipIdle := flag.Bool("skip-idle", false, "coordinator: jump lookahead windows with no pending event anywhere")
	delayFactor := flag.Float64("delay-factor", 4, "PHOLD mean event spacing in lookaheads (all nodes must agree)")
	obsEvery := flag.Int("obs-every", 0, "coordinator: collect cluster telemetry, piggybacked every N windows (0 = off)")
	obsSpans := flag.Int("obs-spans", 0, "coordinator: per-track trace ring capacity (0 = default)")
	tracePath := flag.String("trace", "", "coordinator: write merged cluster Chrome trace to this file (implies -obs-every 1)")
	metricsAddr := flag.String("metrics-addr", "", "serve live JSON metrics + pprof on this address (both modes)")
	rebalance := flag.Bool("rebalance", false, "coordinator: adaptively migrate LPs between workers when load skews")
	rebalanceEvery := flag.Int("rebalance-every", 0, "coordinator: rebalance planning cadence in executed windows (0 = 16 default)")
	imbalanceThresh := flag.Float64("imbalance-thresh", 0, "coordinator: migrate only when max worker load > thresh * mean (0 = 1.25 default)")
	skewHot := flag.Int("skew-hot", 0, "PHOLD: make the lowest N LPs hot (all nodes must agree)")
	skewFactor := flag.Float64("skew", 1, "PHOLD: hot LPs fire this many times as often (all nodes must agree)")
	hotHoldNs := flag.Int("hot-hold-ns", 0, "worker: extra wall ns a hot LP holds its worker per event (load shaping only)")
	threads := flag.Int("threads", 1, "worker: intra-worker execution pool size; LPs run across this many goroutines per window (results are bit-identical for any value)")
	flag.Parse()

	switch *mode {
	case "coordinator":
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Printf("lsnode: coordinating %d LPs over %d workers on %s\n", *lps, *workers, ln.Addr())
		c := distsim.NewCoordinator(*lps, *lookahead, *horizon, *seed)
		if *timeout != 0 {
			c.Timeout = time.Duration(*timeout * float64(time.Second))
		}
		c.CheckpointEvery = *ckptEvery
		c.MaxRecoveries = *maxRec
		c.CheckpointPath = *ckptFile
		c.ResumePath = *resumeFile
		c.JournalPath = *journalFile
		c.SkipIdle = *skipIdle
		if *rebalance {
			c.Rebalance = &partition.Greedy{Threshold: *imbalanceThresh}
			c.RebalanceEvery = *rebalanceEvery
		}
		if *tracePath != "" && *obsEvery == 0 {
			*obsEvery = 1
		}
		var co *distsim.ClusterObs
		if *obsEvery > 0 {
			co = c.EnableObservability(*obsEvery, *obsSpans)
		}
		if *metricsAddr != "" {
			if co == nil {
				co = c.EnableObservability(4, 0)
			}
			ms, err := monitoring.ServeMetrics(*metricsAddr, func() any { return co.Snapshot() })
			if err != nil {
				fatal(err)
			}
			defer ms.Close()
			fmt.Printf("lsnode: metrics on http://%s/metrics\n", ms.Addr())
		}
		if err := c.Serve(ln, *workers); err != nil {
			fatal(err)
		}
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatal(err)
			}
			if err := co.WriteMergedTrace(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("lsnode: merged cluster trace written to %s\n", *tracePath)
		}
		t := metrics.NewTable("Distributed run complete", "metric", "value")
		t.AddRowf("windows", c.Windows)
		t.AddRowf("windows skipped", c.WindowsSkipped)
		t.AddRowf("events routed", c.EventsRouted)
		t.AddRowf("recoveries", c.Recoveries)
		if *journalFile != "" {
			t.AddRowf("workers readopted", c.Readopted)
		}
		if *rebalance {
			t.AddRowf("migrations", c.Migrations)
		}
		if c.StatsIncomplete {
			t.AddRowf("stats incomplete", true)
		}
		if co != nil {
			snap := co.Snapshot()
			t.AddRowf("frames sent/recv", fmt.Sprintf("%d/%d", snap.CoordWire.FramesSent, snap.CoordWire.FramesRecv))
			t.AddRowf("barrier wait p99", fmt.Sprintf("%.0fns", snap.BarrierWait.P99Ns))
			t.AddRowf("spans dropped", snap.SpansDropped)
		}
		var executed, sent uint64
		var counts []uint64
		perLP := map[int]uint64{}
		for _, ws := range c.WorkerStats {
			executed += ws.EventsExecuted
			sent += ws.Sent
			for lp, n := range ws.PerLPCounts {
				perLP[lp] = n
			}
		}
		for lp := 0; lp < *lps; lp++ {
			counts = append(counts, perLP[lp])
		}
		t.AddRowf("engine events", executed)
		t.AddRowf("messages sent", sent)
		t.AddRowf("per-LP model events", fmt.Sprint(counts))
		if *verify {
			// The distributed run must match a single-process replay of the
			// same model bit for bit — even when it rode out a coordinator
			// crash-restart, worker recoveries, or live migrations. Every
			// node's PHOLD flags must agree for the reference to be valid.
			ref := parsim.NewPHOLDSkew(*lps, 1, *lookahead, *jobs, *remote, *work, *seed, *delayFactor, *skewHot, *skewFactor)
			ref.Run(*horizon)
			want := ref.PerLPEvents()
			for lp := range want {
				if counts[lp] != want[lp] {
					fatal(fmt.Errorf("verify: LP %d has %d events, single-process run has %d (want %v, got %v)",
						lp, counts[lp], want[lp], want, counts))
				}
			}
			t.AddRowf("verify", "identical to single-process run")
		}
		if err := t.Write(os.Stdout); err != nil {
			fatal(err)
		}
	case "worker":
		if *own == "" {
			fatal(fmt.Errorf("worker needs -own LP list"))
		}
		var ids []int
		for _, part := range strings.Split(*own, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad -own entry %q: %w", part, err))
			}
			ids = append(ids, id)
		}
		w := distsim.NewWorker(ids...)
		w.Threads = *threads
		distsim.InstallPHOLDSkew(w, *lps, *jobs, *remote, *work, *delayFactor, *skewHot, *skewFactor, *hotHoldNs)
		// A worker started before its coordinator retries the dial with
		// capped exponential backoff instead of exiting immediately.
		w.ConnectRetries = *connRetries
		w.ConnectBackoff = *connBackoff
		// A worker that loses its coordinator parks in a bounded
		// reconnect loop so a restarted coordinator can re-adopt it.
		w.MaxPark = *maxPark
		if *metricsAddr != "" {
			ms, err := monitoring.ServeMetrics(*metricsAddr, func() any { return w.WireSnapshot() })
			if err != nil {
				fatal(err)
			}
			defer ms.Close()
			fmt.Printf("lsnode: metrics on http://%s/metrics\n", ms.Addr())
		}
		if *threads > 1 {
			fmt.Printf("lsnode: worker owning LPs %v dialing %s (%d threads)\n", ids, *addr, *threads)
		} else {
			fmt.Printf("lsnode: worker owning LPs %v dialing %s\n", ids, *addr)
		}
		if err := w.Run(*addr); err != nil {
			if errors.Is(err, distsim.ErrCoordinatorLost) {
				// The park budget ran out: report the local progress that
				// would otherwise die with the process, then fail.
				st := w.Stats()
				fmt.Fprintf(os.Stderr, "lsnode: parked out with %d events executed locally (incomplete)\n", st.EventsExecuted)
			}
			fatal(err)
		}
		if *threads > 1 {
			// -threads is an upper bound: say what the pool made of it.
			fmt.Printf("lsnode: pool: %s\n", w.PoolStats())
		}
		fmt.Println("lsnode: worker done")
	default:
		fmt.Fprintln(os.Stderr, "lsnode: -mode must be coordinator or worker")
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsnode:", err)
	os.Exit(1)
}
