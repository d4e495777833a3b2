package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"

	"repro/internal/des"
	"repro/internal/distsim"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/simulators/monarc"
)

// expectation is what a round's output must equal: the digest of the
// single-process reference, and its committed event count.
type expectation struct {
	Digest string `json:"digest"`
	Events uint64 `json:"events"`
}

// round is one execution of one workload in this process. The
// workload fills in the outcome; a traced round (tr != nil) also fills
// metrics and rows.
type round struct {
	spec  *workloadSpec
	seed  uint64
	scale float64 // horizons are divided by it; 1 outside tests
	// tmpDir is where cluster-durable makes its journal directory.
	tmpDir string
	tr     *tracer
	root   int
	// untracedRunS is the parent's median run wall with tracing off;
	// the traced round needs it for obs.overhead_frac.
	untracedRunS float64
	// expectEvents is the reference event count; tier-study's untraced
	// rounds report it, because only an observer can count there.
	expectEvents uint64

	readyNs int64 // nowNs() when the first event may execute
	runNs   int64 // wall of the run call
	events  uint64
	lines   []string // what the digest hashes
	faults  []string // reasons this round fails beyond a digest mismatch
	metrics map[string]float64
	rows    []layerRow
}

func (r *round) traced() bool { return r.tr != nil }

func (r *round) digest() string {
	sum := sha256.Sum256([]byte(strings.Join(r.lines, "\n")))
	return hex.EncodeToString(sum[:16])
}

func (r *round) run() error {
	switch r.spec.name {
	case "seq-hold":
		return runSeqHold(r)
	case "tier-study":
		return runTierStudy(r)
	case "fed-smallwin":
		return runFedSmallwin(r)
	}
	if cfg, ok := clusterCfgs[r.spec.name]; ok {
		return runCluster(r, cfg)
	}
	return fmt.Errorf("unknown workload %q", r.spec.name)
}

// reference computes the expectation for (workload, seed) from the
// single-process reference: parsim with one worker for every PHOLD
// workload, a plain des run for the two sequential ones.
func reference(spec *workloadSpec, seed uint64, scale float64) (expectation, error) {
	r := &round{spec: spec, seed: seed, scale: scale}
	switch spec.name {
	case "seq-hold":
		if err := runSeqHold(r); err != nil {
			return expectation{}, err
		}
	case "tier-study":
		var n uint64
		des.SetDefaultObserver(&des.Observer{Hook: func(obs.Event) { n++ }})
		err := runTierStudy(r)
		des.SetDefaultObserver(nil)
		if err != nil {
			return expectation{}, err
		}
		r.events = n
	case "fed-smallwin":
		ph := parsim.NewPHOLD(pholdLPs, 1, pholdLookahead, 1, pholdRemote, 0, seed)
		ph.Run(fedHorizon / scale)
		r.setPHOLDCounts(ph.PerLPEvents())
	default:
		cfg, ok := clusterCfgs[spec.name]
		if !ok {
			return expectation{}, fmt.Errorf("unknown workload %q", spec.name)
		}
		ph := parsim.NewPHOLDFactor(pholdLPs, 1, pholdLookahead, cfg.jobs, pholdRemote, cfg.work, seed, cfg.factor)
		ph.Run(cfg.horizon / scale)
		r.setPHOLDCounts(ph.PerLPEvents())
	}
	return expectation{Digest: r.digest(), Events: r.events}, nil
}

// setPHOLDCounts records per-LP event counts plus their total as the
// round's output.
func (r *round) setPHOLDCounts(perLP []uint64) {
	r.events = 0
	r.lines = r.lines[:0]
	for i, n := range perLP {
		r.lines = append(r.lines, fmt.Sprintf("lp %d %d", i, n))
		r.events += n
	}
	r.lines = append(r.lines, fmt.Sprintf("total %d", r.events))
}

// engineTotals is what the traced round read from the workload's
// engines: the inputs of the eventq.* and des.* metrics.
type engineTotals struct {
	executed, scheduled uint64
	maxDepth            int
	callbacks           obs.Histogram
}

func (t *engineTotals) add(st des.Stats) {
	t.executed += st.Executed
	t.scheduled += st.Scheduled
	if st.MaxQueue > t.maxDepth {
		t.maxDepth = st.MaxQueue
	}
	t.callbacks.Merge(st.Exec)
}

// fillEngineLayers sets eventq.* and des.* from the totals and returns
// the three rows every workload shares: callbacks and FEL pop on the
// engine's path, FEL push inside the callbacks.
func (r *round) fillEngineLayers(t *engineTotals) (callbacks, pop, push layerRow) {
	popNs, pushNs := probeHold(t.maxDepth)
	m := r.metrics
	m["eventq.hold_ns"] = popNs + pushNs
	m["eventq.max_depth"] = float64(t.maxDepth)
	m["des.executed"] = float64(t.executed)
	m["des.scheduled"] = float64(t.scheduled)
	m["des.callback_ns_p50"] = t.callbacks.Quantile(0.5)
	m["des.callback_ns_p99"] = t.callbacks.Quantile(0.99)
	cbSum := float64(t.callbacks.Sum())
	m["des.callback_share"] = cbSum / (float64(r.runNs) * float64(r.spec.lanes))
	// From outside, run wall minus callbacks minus FEL cost comes out
	// within the probes' error of zero (on seq-hold, below it), so the
	// kernel's own share is priced by a probe of its own.
	m["des.dispatch_ns"] = probeDispatch()
	callbacks = layerRow{Layer: "des callbacks (model + FEL push)", Work: float64(t.executed), BusyNs: cbSum, Basis: measured}
	pop = layerRow{Layer: "eventq pop", Work: float64(t.executed), BusyNs: popNs * float64(t.executed), Basis: estimated}
	push = layerRow{Layer: "eventq push", Work: float64(t.scheduled), BusyNs: pushNs * float64(t.scheduled), Basis: estimated, Inside: callbacks.Layer}
	return callbacks, pop, push
}

// perLane turns busy time summed over lanes that run in parallel into
// time on the run's wall clock.
func perLane(lanes float64, rows ...*layerRow) {
	for _, row := range rows {
		row.BusyNs /= lanes
	}
}

// finishLayers appends the tracing-overhead row, computes the closure
// and stores the rows. Rows of work that runs in parallel lanes have
// already been through perLane.
func (r *round) finishLayers(rows []layerRow) {
	wall := float64(r.runNs)
	if r.untracedRunS > 0 {
		over := wall - r.untracedRunS*1e9
		r.metrics["obs.overhead_frac"] = over / (r.untracedRunS * 1e9)
		if over > 0 {
			rows = append(rows, layerRow{Layer: "obs (traced minus untraced wall)", BusyNs: over, Basis: measured, OnPath: true})
		}
	}
	var attributed float64
	for _, row := range rows {
		if row.OnPath {
			attributed += row.BusyNs
		}
	}
	r.metrics["layers.attributed_frac"] = attributed / wall
	r.metrics["layers.unattributed_frac"] = 1 - attributed/wall
	r.rows = rows
}

// memBefore and memAfter bracket the run call in a traced round.
func (r *round) memBefore() *runtime.MemStats {
	if !r.traced() {
		return nil
	}
	before := &runtime.MemStats{}
	runtime.ReadMemStats(before)
	return before
}

func (r *round) memAfter(before *runtime.MemStats) {
	if before == nil {
		return
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	ev := math.Max(1, float64(r.events))
	r.metrics["runtime.alloc_bytes_per_event"] = float64(after.TotalAlloc-before.TotalAlloc) / ev
	r.metrics["runtime.mallocs_per_event"] = float64(after.Mallocs-before.Mallocs) / ev
	r.metrics["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	r.metrics["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		r.metrics["runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// runSeqHold is the classic hold model on one engine: holdPending
// events, each an empty callback that reschedules itself.
func runSeqHold(r *round) error {
	e := des.NewEngine(des.WithSeed(r.seed))
	var met obs.Metrics
	if r.traced() {
		e.SetObserver(des.Observer{Metrics: &met})
	}
	src := e.Stream("h")
	var hold func()
	hold = func() { e.Schedule(src.Float64()*2, hold) }
	for i := 0; i < holdPending; i++ {
		e.Schedule(src.Float64()*2, hold)
	}
	mem := r.memBefore()
	r.readyNs = nowNs()
	sp := r.tr.begin("des.Engine.RunUntil", "des", r.root)
	end := e.RunUntil(holdHorizon / r.scale)
	r.tr.end(sp)
	r.runNs = nowNs() - r.readyNs

	st := e.Stats()
	r.events = st.Executed
	r.lines = []string{
		fmt.Sprintf("executed %d", st.Executed),
		fmt.Sprintf("scheduled %d", st.Scheduled),
		fmt.Sprintf("max_queue %d", st.MaxQueue),
		fmt.Sprintf("now %x", math.Float64bits(end)),
	}
	r.memAfter(mem)
	if !r.traced() {
		return nil
	}
	var t engineTotals
	t.add(st)
	callbacks, pop, push := r.fillEngineLayers(&t)
	callbacks.OnPath, pop.OnPath = true, true
	r.finishLayers([]layerRow{callbacks, pop, push})
	return nil
}

// runTierStudy is the paper's C6 sweep, one monarc run per link
// capacity so each point gets its own span.
func runTierStudy(r *round) error {
	runs := int(math.Max(2, tierRuns/r.scale))
	horizon := tierHorizon / r.scale
	var met obs.Metrics
	var t engineTotals
	var maxSeq uint64
	if r.traced() {
		// monarc builds its engine inside Run and returns no handle, so
		// the hook is the only way to see queue depth and how far the
		// schedule sequence got (a lower bound on events scheduled).
		des.SetDefaultObserver(&des.Observer{Metrics: &met, Hook: func(ev obs.Event) {
			t.executed++
			if ev.QueueLen > t.maxDepth {
				t.maxDepth = ev.QueueLen
			}
			if ev.Seq > maxSeq {
				maxSeq = ev.Seq
			}
		}})
	}
	mem := r.memBefore()
	r.readyNs = nowNs()
	var points []monarc.TierStudyPoint
	var pointMs []float64
	for _, gbps := range tierLinks {
		sp := r.tr.begin(fmt.Sprintf("monarc.RunTierStudy %g Gbps", gbps), "monarc", r.root)
		start := nowNs()
		pts := monarc.RunTierStudy(r.seed, []float64{gbps}, runs, horizon)
		pointMs = append(pointMs, float64(nowNs()-start)/1e6)
		r.tr.end(sp)
		points = append(points, pts...)
		t.scheduled += maxSeq
		maxSeq = 0
	}
	r.runNs = nowNs() - r.readyNs
	des.SetDefaultObserver(nil) // before any probe builds an engine

	r.lines = r.lines[:0]
	var shipped, backlog float64
	for _, p := range points {
		r.lines = append(r.lines, fmt.Sprintf("%g shipped=%d expected=%d backlog=%d max_delay=%x delivered=%x sufficient=%v",
			p.LinkGbps, p.Shipped, p.Expected, p.Backlog, math.Float64bits(p.MaxDelay), math.Float64bits(p.DeliveredPct), p.Sufficient))
		shipped += float64(p.Shipped)
		backlog += float64(p.Backlog)
		// The paper's C6 shape, asserted outright at full size: 2.5 Gbps
		// and below cannot sustain production, 30 Gbps and above can.
		// The 10 Gbps point depends on the seed; the digest pins it.
		if r.scale == 1 && ((p.LinkGbps <= 2.5 && p.Sufficient) || (p.LinkGbps >= 30 && !p.Sufficient)) {
			r.faults = append(r.faults, fmt.Sprintf("C6 shape: %g Gbps sufficient=%v", p.LinkGbps, p.Sufficient))
		}
	}
	r.events = r.expectEvents
	if r.traced() {
		r.events = t.executed
	}
	r.memAfter(mem)
	if !r.traced() {
		return nil
	}
	t.callbacks = met.Exec
	callbacks, pop, push := r.fillEngineLayers(&t)
	callbacks.OnPath, pop.OnPath = true, true

	sort.Float64s(pointMs)
	m := r.metrics
	m["monarc.point_ms_min"] = pointMs[0]
	m["monarc.point_ms_max"] = pointMs[len(pointMs)-1]
	m["monarc.events_per_point"] = float64(t.executed) / float64(len(points))
	m["replication.shipped"] = shipped
	m["des.process_switch_ns"] = probeProcessSwitch()
	m["netsim.transfer_ns"] = probeTransfer(int(backlog / float64(len(points))))
	r.finishLayers([]layerRow{callbacks, pop, push,
		{Layer: "netsim transfers", Work: shipped, BusyNs: m["netsim.transfer_ns"] * shipped, Basis: estimated, Inside: callbacks.Layer,
			Note: "completed transfers only; the backlog's rebalances are in the callbacks"},
		{Layer: "runtime GC pauses", Work: m["runtime.gc_cycles"], BusyNs: m["runtime.gc_pause_ms"] * 1e6, Basis: measured, Inside: callbacks.Layer},
	})
	return nil
}

// runFedSmallwin is the in-process federation with almost no model
// work: ~16 events per window over 64 LPs and 2 pool workers.
func runFedSmallwin(r *round) error {
	const poolWorkers = 2
	ph := parsim.NewPHOLD(pholdLPs, poolWorkers, pholdLookahead, 1, pholdRemote, 0, r.seed)
	if r.traced() {
		ph.Fed.EnableObservability(256)
	}
	mem := r.memBefore()
	r.readyNs = nowNs()
	sp := r.tr.begin("parsim.Federation.Run", "parsim", r.root)
	ph.Run(fedHorizon / r.scale)
	r.tr.end(sp)
	r.runNs = nowNs() - r.readyNs
	r.setPHOLDCounts(ph.PerLPEvents())
	r.memAfter(mem)
	if !r.traced() {
		return nil
	}

	snap := ph.Fed.Snapshot()
	var t engineTotals
	for _, st := range snap.LPs {
		t.add(st)
	}
	var util float64
	for _, u := range snap.Utilization {
		util += u
	}
	busyNs := util * float64(snap.WindowWall.Sum()) // summed over the pool workers
	callbacks, pop, push := r.fillEngineLayers(&t)

	m := r.metrics
	m["parsim.windows"] = float64(snap.Windows)
	m["parsim.idle_skips"] = float64(snap.IdleSkips)
	m["parsim.window_us"] = snap.WindowWall.Mean() / 1e3
	m["parsim.barrier_wait_ns_p50"] = snap.BarrierWait.Quantile(0.5)
	m["parsim.barrier_wait_ns_p99"] = snap.BarrierWait.Quantile(0.99)
	m["parsim.worker_util"] = util / float64(len(snap.Utilization))
	var dropped uint64
	for _, tr := range ph.Fed.TraceTracks() {
		dropped += tr.Rec.Dropped()
	}
	m["obs.spans_dropped"] = float64(dropped)

	ck := r.tr.begin("parsim.Federation.Checkpoint", "parsim", r.root)
	start := nowNs()
	var buf bytes.Buffer
	if err := ph.Fed.Checkpoint(&buf); err != nil {
		return fmt.Errorf("federation checkpoint: %w", err)
	}
	m["parsim.checkpoint_ms"] = float64(nowNs()-start) / 1e6
	r.tr.end(ck)

	m["pool.run_empty_ns"] = probePoolEmpty(poolWorkers, pholdLPs, m["parsim.barrier_wait_ns_p50"])
	exec := layerRow{Layer: "parsim LP execution (2 pool workers)", Work: float64(t.executed), BusyNs: busyNs / poolWorkers,
		WaitNs: float64(snap.BarrierWait.Sum()) / poolWorkers, Basis: measured, OnPath: true,
		Note: "the federation's own busy and barrier-wait histograms, per worker"}
	callbacks.Inside, pop.Inside = exec.Layer, exec.Layer
	perLane(poolWorkers, &callbacks, &pop, &push)
	r.finishLayers([]layerRow{
		{Layer: "pool dispatch + barrier", Work: float64(snap.Windows), BusyNs: m["pool.run_empty_ns"] * float64(snap.Windows), Basis: estimated, OnPath: true},
		exec, callbacks, pop, push,
	})
	return nil
}

type clusterCfg struct {
	jobs, work int
	factor     float64
	horizon    float64
	durable    bool
}

var clusterCfgs = map[string]clusterCfg{
	"cluster-dense":   {jobs: denseJobs, work: denseWork, factor: denseFactor, horizon: denseHorizon},
	"cluster-sparse":  {jobs: sparseJobs, work: sparseWork, factor: sparseFactor, horizon: sparseHorizon},
	"cluster-durable": {jobs: denseJobs, work: denseWork, factor: denseFactor, horizon: durableHorizon, durable: true},
}

// runCluster is a distsim coordinator and clusterWorkers workers over
// loopback TCP, all in this process, Threads=1 each.
func runCluster(r *round, cfg clusterCfg) error {
	c := distsim.NewCoordinator(pholdLPs, pholdLookahead, cfg.horizon/r.scale, r.seed)
	var cobs *distsim.ClusterObs
	if cfg.durable {
		dir, err := os.MkdirTemp(r.tmpDir, "lsbench-durable-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		c.JournalPath = filepath.Join(dir, "journal")
		c.CheckpointPath = filepath.Join(dir, "checkpoint")
		c.CheckpointEvery = durableCheckpointEvery
		cobs = c.EnableObservability(1, 0)
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer tcp.Close()
	var ln net.Listener = tcp
	var counted *countingListener
	if r.traced() {
		counted = &countingListener{Listener: tcp}
		ln = counted
	}
	addr := tcp.Addr().String()

	// Per-LP callback histograms for the traced round. With cluster
	// observability on (cluster-durable) the workers attach their own;
	// either way Engine.Stats hands them back after the run.
	var lpMetrics [pholdLPs]obs.Metrics
	workerConns := make([]*connStats, clusterWorkers)
	var setupsDone, readyNs atomic.Int64
	var atReady []ioTotals // coordinator conns, then worker conns
	ioSnapshot := func() []ioTotals {
		var out []ioTotals
		for _, st := range counted.stats() {
			out = append(out, st.totals())
		}
		for _, st := range workerConns {
			out = append(out, st.totals())
		}
		return out
	}

	workers := make([]*distsim.Worker, clusterWorkers)
	per := pholdLPs / clusterWorkers
	for wi := range workers {
		ids := make([]int, per)
		for i := range ids {
			ids[i] = wi*per + i
		}
		w := distsim.NewWorker(ids...)
		distsim.InstallPHOLDFactor(w, pholdLPs, cfg.jobs, pholdRemote, cfg.work, cfg.factor)
		install := w.Setup
		w.Setup = func(w *distsim.Worker) {
			install(w)
			if r.traced() && cobs == nil {
				for _, lp := range w.LPs() {
					lp.E.SetObserver(des.Observer{Metrics: &lpMetrics[lp.ID]})
				}
			}
			// Set-up ends when the last worker has seeded its jobs: from
			// here the first window frame may arrive.
			if setupsDone.Add(1) == clusterWorkers {
				if r.traced() {
					atReady = ioSnapshot()
				}
				readyNs.Store(nowNs())
			}
		}
		if r.traced() {
			st := &connStats{}
			workerConns[wi] = st
			w.Dial = func() (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return &countingConn{Conn: conn, st: st}, nil
			}
		}
		workers[wi] = w
	}

	mem := r.memBefore()
	errs := make(chan error, clusterWorkers)
	for wi, w := range workers {
		go func() {
			sp := r.tr.begin(fmt.Sprintf("distsim.Worker.Run %d", wi), "distsim-worker", r.root)
			errs <- w.Run(addr)
			r.tr.end(sp)
		}()
	}
	sp := r.tr.begin("distsim.Coordinator.Serve", "distsim-coordinator", r.root)
	serveErr := c.Serve(ln, clusterWorkers)
	r.tr.end(sp)
	if serveErr != nil {
		// The workers give up on their own once the listener is gone.
		tcp.Close()
	}
	for range workers {
		if err := <-errs; err != nil && serveErr == nil {
			serveErr = err
		}
	}
	end := nowNs()
	if serveErr != nil {
		return serveErr
	}
	r.readyNs = readyNs.Load()
	r.runNs = end - r.readyNs

	perLP := make([]uint64, pholdLPs)
	var executed, retransmits uint64
	for _, ws := range c.WorkerStats {
		executed += ws.EventsExecuted
		for id, n := range ws.PerLPCounts {
			perLP[id] = n
		}
	}
	for _, w := range workers {
		retransmits += w.WireSnapshot().Retransmits
	}
	r.setPHOLDCounts(perLP)
	// Any self-healing on a fault-free loopback run is a failure.
	if c.Reconnects > 0 || c.Recoveries > 0 || retransmits > 0 || c.StatsIncomplete {
		r.faults = append(r.faults, fmt.Sprintf("reconnects=%d recoveries=%d retransmits=%d stats_incomplete=%v",
			c.Reconnects, c.Recoveries, retransmits, c.StatsIncomplete))
	}
	r.memAfter(mem)
	if !r.traced() {
		return nil
	}

	// Link read-outs, net of the registration handshake.
	io := ioSnapshot()
	var coord, work ioTotals // summed over the coordinator's and the workers' ends
	for i := range io {
		d := io[i].sub(atReady[i])
		if i < clusterWorkers {
			coord = coord.add(d)
		} else {
			work = work.add(d)
		}
	}
	var t engineTotals
	for _, w := range workers {
		for _, lp := range w.LPs() {
			t.add(lp.E.Stats())
		}
	}
	callbacks, pop, push := r.fillEngineLayers(&t)

	windows := float64(c.Windows)
	wall := float64(r.runNs)
	m := r.metrics
	m["worker.events_executed"] = float64(executed)
	m["worker.busy_share"] = float64(work.busyNs) / (clusterWorkers * wall)
	m["worker.window_exec_ns"], m["worker.deliver_ns"] = probeWorkerWindow(per, cfg.jobs, cfg.work)
	m["wire.bytes_per_window"] = float64(coord.bytesIn+coord.bytesOut) / windows
	m["wire.frames_per_window"] = float64(coord.writes+work.writes) / windows
	m["wire.marshal_ns_per_event"] = probeMarshal(int(float64(c.EventsRouted) / windows / clusterWorkers))
	m["wire.read_wait_share"] = float64(coord.readNs) / (clusterWorkers * wall)
	m["wire.retransmits"] = float64(retransmits)
	m["coord.windows"] = windows
	m["coord.windows_skipped"] = float64(c.WindowsSkipped)
	m["coord.events_routed"] = float64(c.EventsRouted)
	m["coord.window_us_p50"], m["coord.window_us_p99"] = windowPeriods(counted.stats()[0], r.readyNs)
	m["coord.reconnects"] = float64(c.Reconnects)
	m["coord.recoveries"] = float64(c.Recoveries)

	worker := layerRow{Layer: "distsim worker (2 in parallel)", Work: float64(executed), BusyNs: float64(work.busyNs) / clusterWorkers,
		WaitNs: float64(work.readNs) / clusterWorkers, Basis: measured, OnPath: true,
		Note: "window frame read to done frame write, at the worker's end of the link"}
	// What the coordinator waited beyond its workers' busy time is the
	// link: syscalls, loopback transit, goroutine wake-ups.
	link := layerRow{Layer: "distsim wire + link", Work: float64(coord.writes + work.writes),
		BusyNs: math.Max(0, float64(coord.readNs-work.busyNs)+float64(coord.writeNs)) / clusterWorkers, Basis: measured, OnPath: true}
	callbacks.Inside, pop.Inside = worker.Layer, worker.Layer
	perLane(clusterWorkers, &callbacks, &pop, &push)
	rows := []layerRow{worker, link, callbacks, pop, push,
		{Layer: "worker window exec (probe)", Work: windows * clusterWorkers, BusyNs: m["worker.window_exec_ns"] * windows, Basis: estimated, Inside: worker.Layer},
		{Layer: "worker deliver (probe)", Work: windows * clusterWorkers, BusyNs: m["worker.deliver_ns"] * windows, Basis: estimated, Inside: worker.Layer},
		{Layer: "wire marshal (probe)", Work: float64(c.EventsRouted), BusyNs: m["wire.marshal_ns_per_event"] * float64(c.EventsRouted) / clusterWorkers, Basis: estimated, Inside: link.Layer},
	}

	if cfg.durable {
		dir := filepath.Dir(c.JournalPath)
		jst, err := os.Stat(c.JournalPath)
		if err != nil {
			return err
		}
		cst, err := os.Stat(c.CheckpointPath)
		if err != nil {
			return err
		}
		// One checkpoint before the first window, then every k-th.
		count := 1 + math.Floor(windows/durableCheckpointEvery)
		m["journal.bytes_per_window"] = float64(jst.Size()) / windows
		m["checkpoint.count"] = count
		m["checkpoint.bytes"] = float64(cst.Size())
		if m["journal.append_us"], err = probeJournal(dir); err != nil {
			return err
		}
		if m["checkpoint.write_ms"], err = probeCheckpointWrite(dir, cst.Size()); err != nil {
			return err
		}
		if m["obs.piggyback_ns"], err = probeObsPiggyback(); err != nil {
			return err
		}
		m["obs.spans_dropped"] = float64(cobs.Snapshot().SpansDropped)
		rows = append(rows,
			layerRow{Layer: "distsim journal append + fsync", Work: windows, BusyNs: m["journal.append_us"] * 1e3 * windows, Basis: estimated, OnPath: true},
			layerRow{Layer: "checkpoint file write + fsync", Work: count, BusyNs: m["checkpoint.write_ms"] * 1e6 * count, Basis: estimated, OnPath: true,
				Note: "the disk half only; the snapshot round trip is in the worker and link rows"},
			layerRow{Layer: "obs piggyback", Work: windows * clusterWorkers, BusyNs: m["obs.piggyback_ns"] * windows, Basis: estimated, OnPath: true},
		)
	}
	r.finishLayers(rows)
	return nil
}

// windowPeriods turns the write times of the coordinator's link to
// slot 0 into window periods (one frame goes out per window; on
// cluster-durable the checkpoint frames split a few of them).
func windowPeriods(st *connStats, sinceNs int64) (p50, p99 float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var gaps []float64
	for i := 1; i < len(st.writeAt); i++ {
		if st.writeAt[i-1] >= sinceNs {
			gaps = append(gaps, float64(st.writeAt[i]-st.writeAt[i-1])/1e3)
		}
	}
	if len(gaps) == 0 {
		return 0, 0
	}
	sort.Float64s(gaps)
	return gaps[len(gaps)/2], gaps[len(gaps)*99/100]
}
