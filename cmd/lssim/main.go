// Command lssim runs one simulator personality scenario and prints its
// result metrics — the scenario-runner front end of the framework.
//
// Usage:
//
//	lssim -sim bricks|optorsim|simgrid|gridsim|chicsim|monarc|phold|distphold [-seed N] [-jobs N]
//
// Each personality runs its default configuration with the seed and
// job-count overrides applied where meaningful.
//
// The phold personality is the checkpointable parallel benchmark: with
// -checkpoint it runs to a window barrier and writes a snapshot; with
// -resume it restores a snapshot and finishes the run; with -verify it
// additionally replays the whole run uninterrupted in-process and
// requires bit-identical results.
//
// The distphold personality runs the same benchmark truly distributed:
// an in-process coordinator plus -workers TCP workers talking over the
// loopback, optionally through the deterministic fault injector
// (package chaos). The -chaos-* flags attack both directions of the
// wire; -chaos-reset-at forces connection resets at exact coordinator
// message indices (deterministic reconnect drills); -verify replays
// the run single-process and requires bit-identical per-LP results —
// the paper-grade evidence that a hostile network costs retries, never
// answers. -delay-factor widens the mean event spacing (sparse
// traffic) and -skip-idle enables coordinator window skipping over the
// resulting empty windows; -verify still holds in both modes.
// -skew-hot/-skew make the lowest LPs hot (they fire -skew times as
// often), and -rebalance turns on adaptive partitioning: the
// coordinator watches per-LP load and live-migrates LPs between
// workers at window barriers (cadence -rebalance-every, hysteresis
// -imbalance-thresh). -verify still holds — migration never changes
// results, only where the work runs. -journal makes the coordinator's
// control plane durable: a coordinator restarted with the same journal
// path re-adopts the surviving workers and finishes the run with
// results bit-identical to one that was never interrupted.
//
// With cluster observability on (-trace, -histo, -metrics-addr, or
// -obs-every) distphold aggregates worker telemetry shipped over the
// wire itself: -trace writes one merged, validated Perfetto trace with
// a track per worker plus the coordinator's window-phase spans, -histo
// prints cluster-wide latency histograms, and -metrics-addr serves the
// live JSON snapshot (plus pprof) while the run is in flight.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/des"
	"repro/internal/distsim"
	"repro/internal/metrics"
	"repro/internal/monitoring"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/partition"
	"repro/internal/simulators/bricks"
	"repro/internal/simulators/chicsim"
	"repro/internal/simulators/gridsim"
	"repro/internal/simulators/monarc"
	"repro/internal/simulators/optorsim"
	"repro/internal/simulators/simgrid"
)

// phold personality parameters (fixed except for the flags): an
// 8-LP federation with unit lookahead, the E5 default traffic mix.
const (
	pholdLPs       = 8
	pholdLookahead = 1.0
	pholdJobs      = 16
	pholdRemote    = 0.2
	pholdWork      = 100
)

// runPHOLD executes the checkpointable PHOLD personality: optionally
// restoring a snapshot first, optionally stopping at a window barrier
// to write one, and optionally verifying the finished run against an
// uninterrupted in-process replay.
func runPHOLD(t *metrics.Table, seed uint64, jobs int, horizon float64, workers int, ckptPath string, ckptAt float64, resumePath string, verify, histo bool) error {
	jobsPer := pholdJobs
	if jobs > 0 {
		jobsPer = jobs
	}
	build := func(w int, s uint64) *parsim.PHOLD {
		return parsim.NewPHOLD(pholdLPs, w, pholdLookahead, jobsPer, pholdRemote, pholdWork, s)
	}
	ph := build(workers, seed)
	if resumePath != "" {
		f, err := os.Open(resumePath)
		if err != nil {
			return err
		}
		err = ph.Fed.Restore(f)
		f.Close()
		if err != nil {
			return err
		}
		t.AddRowf("resumed from", fmt.Sprintf("%s (t=%v)", resumePath, ph.Fed.Clock()))
	}
	if ckptPath != "" {
		at := ckptAt
		if at == 0 {
			at = horizon / 2
		}
		if at <= ph.Fed.Clock() {
			return fmt.Errorf("checkpoint time %v is not past the clock %v", at, ph.Fed.Clock())
		}
		ph.Fed.Run(at)
		f, err := os.Create(ckptPath)
		if err != nil {
			return err
		}
		if err := ph.Fed.Checkpoint(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		t.AddRowf("checkpoint", fmt.Sprintf("%s (t=%v)", ckptPath, ph.Fed.Clock()))
		t.AddRowf("events so far", ph.TotalEvents())
		return nil
	}
	ph.Run(horizon)
	t.AddRowf("events", ph.TotalEvents())
	t.AddRowf("windows", ph.Fed.Windows())
	t.AddRowf("per-LP events", fmt.Sprint(ph.PerLPEvents()))
	if histo {
		// How many windows the pool ran on this goroutine and how many it
		// handed to its workers: -workers is an upper bound.
		t.AddRowf("pool", ph.Fed.Snapshot().Pool.String())
	}
	if verify {
		ref := build(1, seed)
		ref.Run(horizon)
		want, got := ref.PerLPEvents(), ph.PerLPEvents()
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("verify: LP %d has %d events, uninterrupted run has %d (want %v, got %v)",
					i, got[i], want[i], want, got)
			}
		}
		if ph.Fed.Windows() != ref.Fed.Windows() {
			return fmt.Errorf("verify: %d windows, uninterrupted run has %d", ph.Fed.Windows(), ref.Fed.Windows())
		}
		t.AddRowf("verify", "identical to uninterrupted run")
	}
	return nil
}

// runDistPHOLD executes the distributed PHOLD personality: a
// coordinator and nWorkers TCP workers in one process, with the chaos
// injector optionally attacking both directions of every connection.
// Cluster observability (obsEvery/tracePath/metricsAddr/histo) flows
// through the coordinator's ClusterObs — the sequential default
// observer cannot be used here because the in-process workers run
// concurrently.
func runDistPHOLD(t *metrics.Table, seed uint64, jobs, nWorkers, threads int, horizon float64, delayFactor float64, skipIdle bool, ch chaos.Config, resetAt string, verify bool, obsEvery int, tracePath, metricsAddr string, histo bool, rebalance bool, rebalanceEvery int, imbalanceThresh float64, skewHot int, skewFactor float64, journalPath string) error {
	jobsPer := pholdJobs
	if jobs > 0 {
		jobsPer = jobs
	}
	if delayFactor <= 0 {
		return fmt.Errorf("-delay-factor must be positive, got %v", delayFactor)
	}
	if nWorkers <= 0 || pholdLPs%nWorkers != 0 {
		return fmt.Errorf("-workers must divide the %d LPs, got %d", pholdLPs, nWorkers)
	}
	forced, err := parseResetAt(resetAt)
	if err != nil {
		return err
	}
	ch.ResetAt = forced
	chaotic := ch.Drop > 0 || ch.Dup > 0 || ch.Reorder > 0 || ch.Corrupt > 0 ||
		ch.Reset > 0 || ch.Delay > 0 || ch.Jitter > 0 || len(ch.ResetAt) > 0 ||
		ch.PartitionDur > 0

	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer base.Close()
	addr := base.Addr().String()
	var ln net.Listener = base
	if chaotic {
		ln = chaos.New(ch).Listener(base)
	}

	c := distsim.NewCoordinator(pholdLPs, pholdLookahead, horizon, seed)
	c.SkipIdle = skipIdle
	c.JournalPath = journalPath
	if rebalance {
		// Event-count weights keep the CLI's planning deterministic for
		// a given seed; the busy-ns signal is available through the API.
		c.Rebalance = &partition.Greedy{Threshold: imbalanceThresh, UseEvents: true}
		c.RebalanceEvery = rebalanceEvery
	}
	c.Timeout = 2 * time.Second
	c.ReconnectWait = 10 * time.Second
	c.MaxReconnects = 1 << 20

	var co *distsim.ClusterObs
	if obsEvery > 0 || tracePath != "" || metricsAddr != "" || histo {
		every := obsEvery
		if every <= 0 {
			every = 1
		}
		co = c.EnableObservability(every, 0)
	}
	var ms *monitoring.MetricsServer
	if metricsAddr != "" {
		var err error
		ms, err = monitoring.ServeMetrics(metricsAddr, func() any { return co.Snapshot() })
		if err != nil {
			return err
		}
		defer ms.Close()
		t.AddRowf("metrics endpoint", "http://"+ms.Addr()+"/metrics")
	}

	half := pholdLPs / nWorkers
	workers := make([]*distsim.Worker, nWorkers)
	for i := range workers {
		ids := make([]int, 0, half)
		for lp := i * half; lp < (i+1)*half; lp++ {
			ids = append(ids, lp)
		}
		w := distsim.NewWorker(ids...)
		// Hierarchical parallelism: every in-process worker runs its LPs
		// across an intra-worker pool; results are bit-identical for any
		// thread count.
		w.Threads = threads
		distsim.InstallPHOLDSkew(w, pholdLPs, jobsPer, pholdRemote, pholdWork, delayFactor, skewHot, skewFactor, 0)
		w.ConnectBackoff = 10 * time.Millisecond
		w.ConnectRetries = 100
		// Short handshake waits: a dropped hello or resume reply must be
		// retried several times inside the coordinator's reconnect
		// window, not once at the default 10s.
		w.HandshakeTimeout = time.Second
		if chaotic {
			// Each worker attacks its own dialed connections with an
			// independent fault stream; scripted resets stay on the
			// coordinator side so their message indices are exact.
			wcfg := ch
			wcfg.ResetAt = nil
			wcfg.Seed += uint64(i+1) * 1000003
			inj := chaos.New(wcfg)
			w.Dial = func() (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return inj.Conn(conn), nil
			}
		}
		workers[i] = w
	}

	errs := make(chan error, len(workers))
	for _, w := range workers {
		w := w
		go func() { errs <- w.Run(addr) }()
	}
	if err := c.Serve(ln, len(workers)); err != nil {
		return err
	}
	for range workers {
		if err := <-errs; err != nil {
			return fmt.Errorf("worker: %w", err)
		}
	}

	perLP := make([]uint64, pholdLPs)
	var executed uint64
	for _, ws := range c.WorkerStats {
		executed += ws.EventsExecuted
		for lp, n := range ws.PerLPCounts {
			perLP[lp] = n
		}
	}
	t.AddRowf("windows", c.Windows)
	t.AddRowf("windows skipped", c.WindowsSkipped)
	t.AddRowf("events routed", c.EventsRouted)
	t.AddRowf("engine events", executed)
	t.AddRowf("reconnects", c.Reconnects)
	if journalPath != "" {
		t.AddRowf("workers readopted", c.Readopted)
	}
	if rebalance {
		t.AddRowf("migrations", c.Migrations)
	}
	t.AddRowf("per-LP events", fmt.Sprint(perLP))
	if c.StatsIncomplete {
		t.AddRowf("stats incomplete", true)
	}

	if co != nil {
		snap := co.Snapshot()
		t.AddRowf("coord frames sent/recv", fmt.Sprintf("%d/%d", snap.CoordWire.FramesSent, snap.CoordWire.FramesRecv))
		t.AddRowf("retransmits", snap.CoordWire.Retransmits)
		t.AddRowf("session resumes", snap.CoordWire.Resumes)
		t.AddRowf("corrupt frames seen", snap.CoordWire.CorruptFrames)
		t.AddRowf("spans dropped", snap.SpansDropped)
		if histo {
			exec, dwell, bw, del := co.Histograms()
			t.AddRowf("cluster event exec", exec.String())
			t.AddRowf("cluster queue dwell", dwell.String())
			t.AddRowf("cluster barrier wait", bw.String())
			t.AddRowf("cluster deliver", del.String())
			for i, w := range workers {
				t.AddRowf(fmt.Sprintf("worker %d pool", i), w.PoolStats().String())
			}
		}
	}
	if ms != nil {
		// Self-probe: prove the live endpoint serves the same snapshot a
		// monitoring scrape would get.
		body, err := ms.Fetch()
		if err != nil {
			return fmt.Errorf("metrics self-probe: %w", err)
		}
		t.AddRowf("metrics self-probe", fmt.Sprintf("%d bytes", len(body)))
	}
	if tracePath != "" {
		var buf bytes.Buffer
		if err := co.WriteMergedTrace(&buf); err != nil {
			return err
		}
		// Strict re-parse before the bytes hit disk: a malformed merged
		// trace fails the run, not the later Perfetto import.
		events, tids, err := obs.ValidateChromeTrace(buf.Bytes())
		if err != nil {
			return fmt.Errorf("merged trace validation: %w", err)
		}
		if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		t.AddRowf("merged trace", fmt.Sprintf("%s (%d events, %d tracks)", tracePath, events, len(tids)))
	}

	if len(forced) > 0 && c.Reconnects < len(forced) {
		return fmt.Errorf("%d scripted resets forced only %d reconnects", len(forced), c.Reconnects)
	}
	if rebalance && skewHot > 0 && c.Migrations == 0 {
		return fmt.Errorf("rebalance: the skewed run migrated nothing (imbalance never crossed the threshold)")
	}
	if verify {
		ref := parsim.NewPHOLDSkew(pholdLPs, 1, pholdLookahead, jobsPer, pholdRemote, pholdWork, seed, delayFactor, skewHot, skewFactor)
		ref.Run(horizon)
		want := ref.PerLPEvents()
		for i := range want {
			if perLP[i] != want[i] {
				return fmt.Errorf("verify: LP %d has %d events, fault-free run has %d (want %v, got %v)",
					i, perLP[i], want[i], want, perLP)
			}
		}
		t.AddRowf("verify", "identical to fault-free single-process run")
	}
	return nil
}

// parseResetAt parses a comma-separated list of coordinator message
// indices at which the injector force-closes the connection.
func parseResetAt(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -chaos-reset-at entry %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	sim := flag.String("sim", "monarc", "personality: bricks|optorsim|simgrid|gridsim|chicsim|monarc|phold|distphold")
	seed := flag.Uint64("seed", 1, "random seed")
	jobs := flag.Int("jobs", 0, "job/task count override (0 = personality default)")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto) of the run to this file")
	histo := flag.Bool("histo", false, "print event-latency histograms after the run")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	horizon := flag.Float64("horizon", 40, "phold: simulation end time")
	workers := flag.Int("workers", 4, "phold: parallel pool workers; distphold: TCP worker count (must divide the LPs)")
	ckptPath := flag.String("checkpoint", "", "phold: run to -checkpoint-at, write a snapshot to this file, and exit")
	ckptAt := flag.Float64("checkpoint-at", 0, "phold: window barrier to checkpoint at (0 = half the horizon; use a multiple of the lookahead)")
	resumePath := flag.String("resume", "", "phold: restore this snapshot before running to -horizon")
	verify := flag.Bool("verify", false, "phold/distphold: replay the run uninterrupted in-process and require identical results")
	delayFactor := flag.Float64("delay-factor", 4, "distphold: mean event spacing in lookaheads (large values make traffic sparse)")
	skipIdle := flag.Bool("skip-idle", false, "distphold: let the coordinator jump lookahead windows with no pending event anywhere")
	chaosSeed := flag.Uint64("chaos-seed", 1, "distphold: fault-injector seed")
	chaosDrop := flag.Float64("chaos-drop", 0, "distphold: per-message drop probability")
	chaosDup := flag.Float64("chaos-dup", 0, "distphold: per-message duplication probability")
	chaosReorder := flag.Float64("chaos-reorder", 0, "distphold: per-message reorder probability")
	chaosCorrupt := flag.Float64("chaos-corrupt", 0, "distphold: per-message byte-corruption probability")
	chaosReset := flag.Float64("chaos-reset", 0, "distphold: per-message connection-reset probability")
	chaosDelay := flag.Duration("chaos-delay", 0, "distphold: fixed per-message delay")
	chaosJitter := flag.Duration("chaos-jitter", 0, "distphold: random per-message delay on top of -chaos-delay")
	chaosResetAt := flag.String("chaos-reset-at", "", "distphold: comma-separated coordinator message indices to force-reset at")
	obsEvery := flag.Int("obs-every", 0, "distphold: piggyback cluster telemetry every N windows (0 = off unless -trace/-histo/-metrics-addr)")
	metricsAddr := flag.String("metrics-addr", "", "distphold: serve live JSON cluster metrics + pprof on this address (e.g. 127.0.0.1:0)")
	rebalance := flag.Bool("rebalance", false, "distphold: adaptively migrate LPs between workers when load skews")
	rebalanceEvery := flag.Int("rebalance-every", 0, "distphold: planning cadence in executed windows (0 = 16 default)")
	imbalanceThresh := flag.Float64("imbalance-thresh", 0, "distphold: migrate only when max worker load > thresh * mean (0 = 1.25 default)")
	skewHot := flag.Int("skew-hot", 0, "distphold: make the lowest N LPs hot")
	skewFactor := flag.Float64("skew", 1, "distphold: hot LPs fire this many times as often")
	journalPath := flag.String("journal", "", "distphold: durable coordinator control-plane journal (enables crash-restart re-adoption)")
	threads := flag.Int("threads", 1, "distphold: intra-worker execution pool size per worker (results are bit-identical for any value)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "lssim: pprof:", err)
			}
		}()
	}

	// Personalities construct their engines internally, so the trace
	// recorder and histograms are injected through the engine's default
	// observer (sequential front-end wiring; see des.SetDefaultObserver).
	// distphold is the exception: its workers run concurrently in this
	// process, so it routes telemetry through the coordinator's
	// ClusterObs instead of a shared sequential recorder.
	var rec *obs.Recorder
	var met *obs.Metrics
	if (*trace != "" || *histo) && *sim != "distphold" {
		met = &obs.Metrics{}
		o := &des.Observer{Metrics: met}
		if *trace != "" {
			rec = obs.NewRecorder(1 << 18)
			o.Recorder = rec
		}
		des.SetDefaultObserver(o)
		defer des.SetDefaultObserver(nil)
	}

	t := metrics.NewTable(fmt.Sprintf("lssim: %s (seed %d)", *sim, *seed), "metric", "value")
	switch *sim {
	case "bricks":
		cfg := bricks.DefaultConfig()
		cfg.Seed = *seed
		if *jobs > 0 {
			cfg.JobsPerClient = *jobs / cfg.Clients
		}
		r := bricks.Run(cfg)
		t.AddRowf("jobs", r.Jobs)
		t.AddRowf("makespan s", r.Makespan)
		t.AddRowf("mean response s", r.MeanResponse)
		t.AddRowf("mean wait s", r.MeanWait)
		t.AddRowf("server utilization", r.Utilization)
		t.AddRowf("WAN GB", r.WANBytesMoved/1e9)
	case "optorsim":
		cfg := optorsim.DefaultConfig()
		cfg.Seed = *seed
		if *jobs > 0 {
			cfg.Jobs = *jobs
		}
		r := optorsim.Run(cfg)
		t.AddRowf("jobs", r.Jobs)
		t.AddRowf("mean job time s", r.MeanJobTime)
		t.AddRowf("local hit ratio", r.LocalHitRatio)
		t.AddRowf("replica pulls", r.Pulls)
		t.AddRowf("evictions", r.Evictions)
		t.AddRowf("WAN GB", r.WANBytes/1e9)
	case "simgrid":
		cfg := simgrid.DefaultConfig()
		cfg.Seed = *seed
		if *jobs > 0 {
			cfg.Tasks = *jobs
		}
		r := simgrid.Run(cfg)
		t.AddRowf("tasks", r.Tasks)
		t.AddRowf("makespan s", r.Makespan)
		t.AddRowf("mean response s", r.MeanResponse)
		for i, n := range r.PerMachineJobs {
			t.AddRowf(fmt.Sprintf("machine %d tasks", i), n)
		}
	case "gridsim":
		cfg := gridsim.DefaultConfig()
		cfg.Seed = *seed
		if *jobs > 0 {
			cfg.Jobs = *jobs
		}
		r := gridsim.Run(cfg)
		t.AddRowf("jobs", r.Jobs)
		t.AddRowf("completed", r.Completed)
		t.AddRowf("rejected", r.Rejected)
		t.AddRowf("deadline misses", r.DeadlineMisses)
		t.AddRowf("total spend", r.TotalSpend)
		t.AddRowf("mean response s", r.MeanResponse)
	case "chicsim":
		cfg := chicsim.DefaultConfig()
		cfg.Seed = *seed
		if *jobs > 0 {
			cfg.Jobs = *jobs
		}
		r := chicsim.Run(cfg)
		t.AddRowf("jobs", r.Jobs)
		t.AddRowf("mean response s", r.MeanResponse)
		t.AddRowf("local hit ratio", r.LocalHitRatio)
		t.AddRowf("pushes", r.Pushes)
		t.AddRowf("WAN GB", r.WANBytes/1e9)
	case "monarc":
		cfg := monarc.DefaultConfig()
		cfg.Seed = *seed
		if *jobs > 0 {
			cfg.Runs = *jobs
		}
		r := monarc.Run(cfg)
		t.AddRowf("RAW files produced", r.RawProduced)
		t.AddRowf("replicas shipped", r.Shipped)
		t.AddRowf("agent max delay s", r.AgentMaxDelay)
		t.AddRowf("reco jobs", r.RecoJobs)
		t.AddRowf("analysis jobs", r.AnalysisJobs)
		t.AddRowf("mean reco s", r.MeanRecoTime)
		t.AddRowf("mean analysis s", r.MeanAnaTime)
		t.AddRowf("T0 utilization", r.T0Utilization)
		t.AddRowf("WAN GB", r.WANBytes/1e9)
		t.AddRowf("DB queries", r.DBQueries)
	case "phold":
		if err := runPHOLD(t, *seed, *jobs, *horizon, *workers, *ckptPath, *ckptAt, *resumePath, *verify, *histo); err != nil {
			fmt.Fprintln(os.Stderr, "lssim:", err)
			os.Exit(1)
		}
	case "distphold":
		ch := chaos.Config{
			Seed: *chaosSeed, Drop: *chaosDrop, Dup: *chaosDup,
			Reorder: *chaosReorder, Corrupt: *chaosCorrupt, Reset: *chaosReset,
			Delay: *chaosDelay, Jitter: *chaosJitter,
		}
		if err := runDistPHOLD(t, *seed, *jobs, *workers, *threads, *horizon, *delayFactor, *skipIdle, ch, *chaosResetAt, *verify, *obsEvery, *trace, *metricsAddr, *histo, *rebalance, *rebalanceEvery, *imbalanceThresh, *skewHot, *skewFactor, *journalPath); err != nil {
			fmt.Fprintln(os.Stderr, "lssim:", err)
			os.Exit(1)
		}
		// The cluster path has already written/validated the merged trace
		// and printed cluster histograms; suppress the sequential tail.
		*trace, *histo = "", false
	default:
		fmt.Fprintf(os.Stderr, "lssim: unknown personality %q\n", *sim)
		flag.Usage()
		os.Exit(2)
	}
	if *histo {
		t.AddRowf("event exec", met.Exec.String())
		t.AddRowf("queue dwell (sim ns)", met.Dwell.String())
	}
	if err := t.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lssim:", err)
		os.Exit(1)
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lssim:", err)
			os.Exit(1)
		}
		track := obs.Track{Name: *sim, TID: 0, Rec: rec}
		if err := obs.WriteChromeTrace(f, track); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "lssim:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lssim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d spans, %d dropped)\n", *trace, rec.Len(), rec.Dropped())
	}
}
