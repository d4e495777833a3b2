// Package front is the one front door to a PHOLD run, distributed or
// in-process: the command line lssim and lsnode share. A run is
// described by the structs that already are its configuration —
// distsim.Coordinator, distsim.Worker, winsync.PHOLD, chaos.Config —
// and every flag writes a field of one of them (or of Run, for what
// only a front end needs) at one call site in this package. Validate
// runs before anything else; the in-process cluster, lssim's parsim
// federation, the run summary, the trace and the -verify replay are
// written here once and called by both commands.
package front

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/distsim"
	"repro/internal/metrics"
	"repro/internal/monitoring"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/partition"
	"repro/internal/winsync"
)

// Run is one PHOLD run as a command line describes it.
type Run struct {
	Coord distsim.Coordinator
	Model winsync.PHOLD
	// Worker is never run: it holds the settings NewWorker gives every
	// worker of the run, which cannot exist before -own is parsed.
	Worker distsim.Worker
	Chaos  chaos.Config
	Greedy partition.Greedy // what -rebalance installs as Coord.Rebalance

	Workers int   // how many workers the coordinator waits for
	Own     []int // lsnode worker: the LPs it hosts
	Verify  bool
	Histo   bool
	// Trace, MetricsAddr and ObsEvery turn cluster telemetry on.
	Trace, MetricsAddr string
	ObsEvery           int

	Mode, Addr string // lsnode: which node this is, where it listens or dials
	Sim, Pprof string // lssim: the personality, the pprof address
	// lssim's phold personality: parsim snapshot files, the barrier to
	// write one at, and the monitoring capture of its telemetry.
	Checkpoint, Resume, MonOut string
	CheckpointAt               float64
}

// Lssim binds lssim's flags to a Run with its defaults: the fixed 8-LP
// unit-lookahead cluster in one process, with a Timeout short enough
// that a frame the injector eats is noticed within seconds (every other
// wait of the run is derived from it).
func Lssim(fs *flag.FlagSet) *Run {
	r := &Run{
		Coord:  distsim.Coordinator{NLPs: 8, Lookahead: 1, Horizon: 40, Seed: 1, Timeout: 2 * time.Second},
		Model:  winsync.PHOLD{TotalLPs: 8, RemoteProb: 0.2, Work: 100, DelayFactor: 4, SkewFactor: 1},
		Worker: distsim.Worker{Threads: 1},
		// Event-count weights keep planning deterministic for a given
		// seed; the busy-ns signal is what lsnode uses.
		Greedy:  partition.Greedy{UseEvents: true},
		Workers: 4,
	}
	r.shared(fs, &r.Checkpoint)
	fs.StringVar(&r.Resume, "resume", "", "phold: restore this snapshot before running to -horizon")
	fs.StringVar(&r.Sim, "sim", "monarc", "personality: bricks|optorsim|simgrid|gridsim|chicsim|monarc|phold|distphold")
	fs.BoolVar(&r.Histo, "histo", false, "print event-latency histograms after the run")
	fs.StringVar(&r.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.Float64Var(&r.CheckpointAt, "checkpoint-at", 0, "phold: window barrier to checkpoint at (0 = half the horizon; use a multiple of the lookahead)")
	fs.StringVar(&r.MonOut, "monout", "", "phold: also write the run's telemetry in the monitoring wire format to this file, ready to replay")
	ch := &r.Chaos
	fs.Uint64Var(&ch.Seed, "chaos-seed", 1, "distphold: fault-injector seed")
	fs.Float64Var(&ch.Drop, "chaos-drop", 0, "distphold: per-message drop probability")
	fs.Float64Var(&ch.Dup, "chaos-dup", 0, "distphold: per-message duplication probability")
	fs.Float64Var(&ch.Reorder, "chaos-reorder", 0, "distphold: per-message reorder probability")
	fs.Float64Var(&ch.Corrupt, "chaos-corrupt", 0, "distphold: per-message byte-corruption probability")
	fs.Float64Var(&ch.Reset, "chaos-reset", 0, "distphold: per-message connection-reset probability")
	fs.DurationVar(&ch.Delay, "chaos-delay", 0, "distphold: fixed per-message delay")
	fs.DurationVar(&ch.Jitter, "chaos-jitter", 0, "distphold: random per-message delay on top of -chaos-delay")
	fs.Func("chaos-reset-at", "distphold: comma-separated coordinator message `indices` to force-reset at",
		list(&ch.ResetAt, func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) }))
	return r
}

// Lsnode binds lsnode's flags to a Run with its defaults: one node of a
// cluster of OS processes, every protocol budget at the library's own
// default.
func Lsnode(fs *flag.FlagSet) *Run {
	r := &Run{
		Coord:   distsim.Coordinator{NLPs: 8, Lookahead: 1, Horizon: 200, Seed: 1},
		Model:   winsync.PHOLD{TotalLPs: 8, JobsPerLP: 8, RemoteProb: 0.2, Work: 100, DelayFactor: 4, SkewFactor: 1},
		Worker:  distsim.Worker{Threads: 1},
		Workers: 2,
	}
	c, m, w := &r.Coord, &r.Model, &r.Worker
	r.shared(fs, &c.CheckpointPath)
	fs.StringVar(&r.Mode, "mode", "", "coordinator | worker")
	fs.StringVar(&r.Addr, "addr", "localhost:9191", "listen (coordinator) or dial (worker) address")
	fs.IntVar(&c.NLPs, "lps", c.NLPs, "total logical processes (all nodes must agree)")
	fs.Float64Var(&c.Lookahead, "lookahead", c.Lookahead, "synchronization lookahead")
	fs.Func("timeout", "coordinator: per-frame receive deadline in `seconds`, >= 0 (0 = 30s default)", func(s string) error {
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && !(math.Abs(v*float64(time.Second)) < math.MaxInt64) {
			// NaN, ±Inf or too large: the conversion below would make some
			// Duration of it, and that is all Validate gets to see.
			err = fmt.Errorf("%v seconds is not a time.Duration", v)
		}
		c.Timeout = time.Duration(v * float64(time.Second))
		return err
	})
	fs.IntVar(&c.CheckpointEvery, "ckpt-every", 0, "coordinator: cluster checkpoint every N windows (0 = every window when fault tolerance is on)")
	fs.IntVar(&c.MaxRecoveries, "max-recoveries", 0, "coordinator: worker crashes to survive by rollback-recovery")
	fs.Float64Var(&m.RemoteProb, "remote", m.RemoteProb, "PHOLD remote-hop probability")
	fs.IntVar(&m.HotHoldNs, "hot-hold-ns", 0, "worker: extra ns of CPU a hot LP burns per event (load shaping only)")
	fs.Func("own", "worker: comma-separated LP `IDs` this worker owns", list(&r.Own, strconv.Atoi))
	fs.IntVar(&w.MaxPark, "max-park", 0, "worker: reconnect attempts past the first 8 to survive a coordinator restart (0 = 256 default, negative = none)")
	return r
}

// shared binds the flags both commands have; a default that differs
// between them is whatever the caller put in the struct. checkpoint
// names a parsim snapshot for lssim's phold personality and the cluster
// checkpoint file for an lsnode coordinator.
func (r *Run) shared(fs *flag.FlagSet, checkpoint *string) {
	c, m := &r.Coord, &r.Model
	fs.Uint64Var(&c.Seed, "seed", c.Seed, "random seed")
	fs.Float64Var(&c.Horizon, "horizon", c.Horizon, "phold, distributed runs: simulation end time")
	fs.StringVar(&c.JournalPath, "journal", "", "coordinator: durable control-plane journal; restart with the same path to re-adopt surviving workers")
	fs.BoolFunc("rebalance", "coordinator: adaptively migrate LPs between workers when load skews", func(s string) error {
		on, err := strconv.ParseBool(s)
		c.Rebalance = nil
		if on {
			c.Rebalance = &r.Greedy
		}
		return err
	})
	fs.IntVar(&c.RebalanceEvery, "rebalance-every", 0, "coordinator: rebalance planning cadence in executed windows (0 = 16 default)")
	fs.Float64Var(&r.Greedy.Threshold, "imbalance-thresh", 0, "coordinator: migrate only when max worker load > thresh * mean (0 = 1.25 default)")
	fs.IntVar(&m.JobsPerLP, "jobs", m.JobsPerLP, "PHOLD jobs per LP; lssim: job/task count override (0 = personality default)")
	fs.IntVar(&m.Work, "work", m.Work, "PHOLD per-event synthetic work")
	fs.Float64Var(&m.DelayFactor, "delay-factor", m.DelayFactor, "PHOLD mean event spacing in lookaheads; large values make traffic sparse (all nodes must agree)")
	fs.IntVar(&m.SkewHot, "skew-hot", 0, "PHOLD: make the lowest N LPs hot (all nodes must agree)")
	fs.Float64Var(&m.SkewFactor, "skew", m.SkewFactor, "PHOLD: hot LPs fire this many times as often (all nodes must agree)")
	fs.IntVar(&r.Worker.Threads, "threads", r.Worker.Threads, "worker: intra-worker execution pool size, an upper bound (results are bit-identical for any value)")
	fs.IntVar(&r.Workers, "workers", r.Workers, "workers the coordinator waits for (in-process: must divide the LPs); phold: parallel pool workers, an upper bound")
	fs.StringVar(checkpoint, "checkpoint", "", "coordinator: persist cluster checkpoints to this file (atomic), what a -journal restart rolls back to; phold: run to -checkpoint-at, write a snapshot here, and exit")
	fs.BoolVar(&r.Verify, "verify", false, "replay the finished run in a single process and require identical per-LP results")
	fs.StringVar(&r.Trace, "trace", "", "write a Chrome trace-event JSON (Perfetto) of the run to this file; a cluster's is merged across workers")
	fs.IntVar(&r.ObsEvery, "obs-every", 0, "coordinator: piggyback cluster telemetry every N windows (0 = every window once -trace/-histo/-metrics-addr ask for telemetry, else off)")
	fs.StringVar(&r.MetricsAddr, "metrics-addr", "", "serve live JSON metrics + pprof on this address (e.g. 127.0.0.1:0)")
}

// list is a flag.Func parser for a comma-separated list.
func list[T any](dst *[]T, parse func(string) (T, error)) func(string) error {
	return func(s string) error {
		*dst = nil
		for _, part := range strings.Split(s, ",") {
			v, err := parse(strings.TrimSpace(part))
			if err != nil {
				return err
			}
			*dst = append(*dst, v)
		}
		return nil
	}
}

// Validate reports the first setting the run cannot start with, as one
// line. Call it after parsing and before anything else.
func (r *Run) Validate() error {
	c, m := &r.Coord, &r.Model
	m.TotalLPs = c.NLPs // one flag, -lps, for what both structs call the LP count
	if err := c.Validate(); err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if err := r.Chaos.Validate(); err != nil {
		return err
	}
	if th := r.Greedy.Threshold; math.IsNaN(th) || math.IsInf(th, 0) {
		return fmt.Errorf("-imbalance-thresh must be finite, got %v", th)
	}
	if r.ObsEvery < 0 {
		return fmt.Errorf("-obs-every must be >= 0, got %d", r.ObsEvery)
	}
	// A phold pool thread may run no LP at all; a cluster worker may not.
	if r.Workers < 1 || r.Workers > c.NLPs && r.Sim != "phold" {
		return fmt.Errorf("-workers must be between 1 and the %d LPs, got %d", c.NLPs, r.Workers)
	}
	switch r.Mode {
	case "worker":
		if len(r.Own) == 0 {
			return fmt.Errorf("worker needs -own LP list")
		}
		seen := make(map[int]bool, len(r.Own))
		for _, id := range r.Own {
			if id < 0 || id >= c.NLPs || seen[id] {
				return fmt.Errorf("-own %v: LP %d is repeated or outside [0, %d)", r.Own, id, c.NLPs)
			}
			seen[id] = true
		}
	case "": // lssim
		if r.Sim == "phold" {
			// A pool thread takes any share of the LPs.
			if at := r.CheckpointAt; !(at >= 0 && at <= c.Horizon) {
				return fmt.Errorf("-checkpoint-at must be a time in [0, -horizon %v], got %v", c.Horizon, at)
			}
		} else if c.NLPs%r.Workers != 0 {
			// The in-process cluster hands every worker the same number of LPs.
			return fmt.Errorf("-workers must divide the %d LPs, got %d", c.NLPs, r.Workers)
		}
	}
	return nil
}

// NewWorker builds one worker of the run: Worker's settings, the model
// installed.
func (r *Run) NewWorker(lpIDs ...int) *distsim.Worker {
	w, p := distsim.NewWorker(lpIDs...), &r.Worker
	w.Threads, w.MaxPark = p.Threads, p.MaxPark
	distsim.InstallPHOLDModel(w, &r.Model)
	return w
}

// loopback runs the whole cluster in this process — Workers workers
// with equal shares of the LPs — and returns the workers with the run's
// error. When Chaos names any fault, the injector attacks both
// directions of every connection.
func (r *Run) loopback() ([]*distsim.Worker, error) {
	per := r.Coord.NLPs / r.Workers
	workers := make([]*distsim.Worker, r.Workers)
	for i := range workers {
		ids := make([]int, per)
		for j := range ids {
			ids[j] = i*per + j
		}
		workers[i] = r.NewWorker(ids...)
	}
	var wrap func(net.Listener) net.Listener
	if ch := r.Chaos; ch.Drop > 0 || ch.Dup > 0 || ch.Reorder > 0 || ch.Corrupt > 0 ||
		ch.Reset > 0 || ch.Delay > 0 || ch.Jitter > 0 || len(ch.ResetAt) > 0 {
		wrap = func(ln net.Listener) net.Listener {
			// Each worker attacks its own dialed connections with an
			// independent fault stream; scripted resets stay on the
			// coordinator side so their message indices are exact.
			for i, w := range workers {
				wcfg := ch
				wcfg.ResetAt = nil
				wcfg.Seed += uint64(i+1) * 1000003
				w.Dial = chaos.New(wcfg).Dial(ln.Addr().String())
			}
			return chaos.New(ch).Listener(ln)
		}
	}
	return workers, distsim.Loopback(&r.Coord, workers, wrap)
}

// ServeMetrics brings up the live endpoint on addr and says where.
func ServeMetrics(addr string, snapshot func() any) (*monitoring.MetricsServer, error) {
	ms, err := monitoring.ServeMetrics(addr, snapshot)
	if err == nil {
		fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	}
	return ms, err
}

// WriteTrace writes the Chrome trace-event JSON write produces to path
// and reports its size. The bytes pass a strict re-parse before they
// hit disk: a malformed trace fails the run, not the later Perfetto
// import.
func WriteTrace(path string, write func(io.Writer) error) (events, tracks int, err error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return 0, 0, err
	}
	events, tids, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return 0, 0, fmt.Errorf("trace validation: %w", err)
	}
	return events, len(tids), os.WriteFile(path, buf.Bytes(), 0o644)
}

// Serve is the coordinator's side of a run: cluster telemetry on when a
// flag asks for it, the run itself — served to the workers dialing ln,
// or with a nil ln to a cluster in this process — then the summary rows
// into t, the merged trace, and the -verify replay.
func (r *Run) Serve(t *metrics.Table, ln net.Listener) error {
	c := &r.Coord
	var co *distsim.ClusterObs
	if r.ObsEvery > 0 || r.Trace != "" || r.MetricsAddr != "" || r.Histo {
		co = c.EnableObservability(max(r.ObsEvery, 1), 0)
	}
	var ms *monitoring.MetricsServer
	if r.MetricsAddr != "" {
		var err error
		if ms, err = ServeMetrics(r.MetricsAddr, func() any { return co.Snapshot() }); err != nil {
			return err
		}
		defer ms.Close()
	}
	var local []*distsim.Worker
	var err error
	if ln != nil {
		err = c.Serve(ln, r.Workers)
	} else {
		local, err = r.loopback()
	}
	if err != nil {
		return err
	}
	r.report(t, co)
	if r.Histo {
		for i, w := range local {
			t.AddRowf(fmt.Sprintf("worker %d pool", i), w.PoolStats().String())
		}
	}
	if ms != nil {
		// Self-probe: the live endpoint serves the snapshot a monitoring
		// scrape would get.
		body, err := ms.Fetch()
		if err != nil {
			return fmt.Errorf("metrics self-probe: %w", err)
		}
		t.AddRowf("metrics self-probe", fmt.Sprintf("%d bytes", len(body)))
	}
	if r.Trace != "" {
		events, tracks, err := WriteTrace(r.Trace, co.WriteMergedTrace)
		if err != nil {
			return err
		}
		t.AddRowf("merged trace", fmt.Sprintf("%s (%d events, %d tracks)", r.Trace, events, tracks))
	}
	if r.Verify {
		if _, err := r.verify(c.PerLPCounts()); err != nil {
			return err
		}
		t.AddRowf("verify", "identical to fault-free single-process run")
	}
	return nil
}

// PHOLD is lssim's phold personality: the model and run parameters
// distphold uses on a parsim federation in this process, with a pool of
// Workers threads — optionally restoring a snapshot first, optionally
// stopping at a window barrier to write one, observed by the kernel when
// -trace, -histo or -monout ask, and optionally verified against an
// uninterrupted single-thread replay.
func (r *Run) PHOLD(t *metrics.Table) error {
	horizon := r.Coord.Horizon
	ph := parsim.NewPHOLDModel(r.Model, r.Workers, r.Coord.Lookahead, r.Coord.Seed)
	if r.Resume != "" {
		data, err := os.ReadFile(r.Resume)
		if err != nil {
			return err
		}
		if err := ph.Fed.Restore(bytes.NewReader(data)); err != nil {
			return err
		}
		t.AddRowf("resumed from", fmt.Sprintf("%s (t=%v)", r.Resume, ph.Fed.Clock()))
	}
	observed := r.Trace != "" || r.Histo || r.MonOut != ""
	if observed {
		ph.Fed.EnableObservability(1 << 15) // spans kept per LP and per pool thread
	}
	if r.Checkpoint != "" {
		at := r.CheckpointAt
		if at == 0 {
			at = horizon / 2
		}
		if at <= ph.Fed.Clock() {
			return fmt.Errorf("checkpoint time %v is not past the clock %v", at, ph.Fed.Clock())
		}
		ph.Fed.Run(at)
		var snap bytes.Buffer
		if err := ph.Fed.Checkpoint(&snap); err != nil {
			return err
		}
		if err := os.WriteFile(r.Checkpoint, snap.Bytes(), 0o644); err != nil {
			return err
		}
		t.AddRowf("checkpoint", fmt.Sprintf("%s (t=%v)", r.Checkpoint, ph.Fed.Clock()))
		t.AddRowf("events so far", ph.TotalEvents())
	} else {
		if horizon <= ph.Fed.Clock() {
			return fmt.Errorf("horizon %v is not past the clock %v", horizon, ph.Fed.Clock())
		}
		ph.Run(horizon)
		t.AddRowf("events", ph.TotalEvents())
		t.AddRowf("windows", ph.Fed.Windows())
		t.AddRowf("per-LP events", fmt.Sprint(ph.PerLPEvents()))
	}
	if observed {
		if err := r.observe(t, ph.Fed); err != nil {
			return err
		}
	}
	if r.Verify && r.Checkpoint == "" {
		ref, err := r.verify(ph.PerLPEvents())
		if err != nil {
			return err
		}
		if ph.Fed.Windows() != ref.Fed.Windows() {
			return fmt.Errorf("verify: %d windows, uninterrupted run has %d", ph.Fed.Windows(), ref.Fed.Windows())
		}
		t.AddRowf("verify", "identical to uninterrupted run")
	}
	return nil
}

// observe reports what the kernel recorded of an observed federation:
// with -histo where its wall time went, with -trace its Chrome trace —
// the group's window track, one track per LP and one per pool thread —
// and with -monout the same
// telemetry as monitoring records.
func (r *Run) observe(t *metrics.Table, fed *parsim.Federation) error {
	snap, tracks := fed.Snapshot(), fed.TraceTracks()
	if r.Histo {
		// -workers is an upper bound: how many windows the pool ran on
		// this goroutine and how many it handed to its threads.
		t.AddRowf("pool", snap.Pool.String())
		t.AddRowf("window wall", snap.WindowWall.String())
		t.AddRowf("barrier wait", snap.BarrierWait.String())
		for w, u := range snap.Utilization {
			t.AddRowf(fmt.Sprintf("worker %d utilization", w), fmt.Sprintf("%.2f", u))
		}
		var exec, dwell obs.Histogram
		for _, st := range snap.LPs {
			exec.Merge(st.Exec)
			dwell.Merge(st.Dwell)
		}
		t.AddRowf("event exec", exec.String())
		t.AddRowf("queue dwell (sim ns)", dwell.String())
	}
	if r.Trace != "" {
		events, n, err := WriteTrace(r.Trace, func(w io.Writer) error { return obs.WriteChromeTrace(w, tracks...) })
		if err != nil {
			return err
		}
		var dropped uint64
		for _, tr := range tracks {
			dropped += tr.Rec.Dropped()
		}
		t.AddRowf("trace", fmt.Sprintf("%s (%d events, %d tracks)", r.Trace, events, n))
		t.AddRowf("spans dropped", dropped)
	}
	if r.MonOut != "" {
		var recs []monitoring.Record
		for i, st := range snap.LPs {
			recs = append(recs, monitoring.HistogramRecords(fed.Clock(), fmt.Sprintf("lp-%d", i), "exec", st.Exec)...)
		}
		recs = append(recs, monitoring.HistogramRecords(fed.Clock(), "fed", "barrier_wait", snap.BarrierWait)...)
		for _, tr := range tracks {
			recs = append(recs, monitoring.TelemetryRecords(tr.Name, tr.Rec.Spans())...)
		}
		var buf bytes.Buffer
		if err := monitoring.Write(&buf, recs); err != nil {
			return err
		}
		if err := os.WriteFile(r.MonOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
		t.AddRowf("monitoring records", fmt.Sprintf("%s (%d records)", r.MonOut, len(recs)))
	}
	return nil
}

// report adds the finished run's summary rows.
func (r *Run) report(t *metrics.Table, co *distsim.ClusterObs) {
	c := &r.Coord
	var executed, sent uint64
	for _, ws := range c.WorkerStats {
		executed += ws.EventsExecuted
		sent += ws.Sent
	}
	t.AddRowf("windows", c.Windows)
	t.AddRowf("windows skipped", c.WindowsSkipped)
	t.AddRowf("events routed", c.EventsRouted)
	t.AddRowf("engine events", executed)
	t.AddRowf("messages sent", sent)
	t.AddRowf("reconnects", c.Reconnects)
	t.AddRowf("recoveries", c.Recoveries)
	if c.JournalPath != "" {
		t.AddRowf("workers readopted", c.Readopted)
	}
	if c.Rebalance != nil {
		t.AddRowf("migrations", c.Migrations)
	}
	t.AddRowf("per-LP events", fmt.Sprint(c.PerLPCounts()))
	if c.StatsIncomplete {
		t.AddRowf("stats incomplete", true)
	}
	if co == nil {
		return
	}
	snap := co.Snapshot()
	t.AddRowf("coord frames sent/recv", fmt.Sprintf("%d/%d", snap.CoordWire.FramesSent, snap.CoordWire.FramesRecv))
	t.AddRowf("retransmits", snap.CoordWire.Retransmits)
	t.AddRowf("session resumes", snap.CoordWire.Resumes)
	t.AddRowf("corrupt frames seen", snap.CoordWire.CorruptFrames)
	t.AddRowf("barrier wait p99", fmt.Sprintf("%.0fns", snap.BarrierWait.P99Ns))
	t.AddRowf("spans dropped", snap.SpansDropped)
	if r.Histo {
		exec, dwell, bw, del := co.Histograms()
		t.AddRowf("cluster event exec", exec.String())
		t.AddRowf("cluster queue dwell", dwell.String())
		t.AddRowf("cluster barrier wait", bw.String())
		t.AddRowf("cluster deliver", del.String())
	}
}

// verify replays the model to the horizon in one process on one pool
// thread — fault-free, uninterrupted — and requires got, the per-LP
// counts of the run under test, whatever it rode out: a hostile wire, a
// coordinator crash-restart, worker recoveries, live migrations, a
// checkpoint and resume. Every node's PHOLD flags must agree for the
// reference to be valid. It returns the replay.
func (r *Run) verify(got []uint64) (*parsim.PHOLD, error) {
	m := r.Model
	m.HotHoldNs = 0 // CPU-time shaping only
	ref := parsim.NewPHOLDModel(m, 1, r.Coord.Lookahead, r.Coord.Seed)
	ref.Run(r.Coord.Horizon)
	want := ref.PerLPEvents()
	for lp := range want {
		if got[lp] != want[lp] {
			return nil, fmt.Errorf("verify: LP %d has %d events, the single-process replay has %d (want %v, got %v)", lp, got[lp], want[lp], want, got)
		}
	}
	return ref, nil
}
