package main

// The fixed vocabulary of the benchmark: workloads, end-to-end metrics
// and per-layer metrics. Every later issue refers to these names, and
// BENCHMARK.json at the repository root lists exactly the same ones
// (TestBenchmarkJSONMatchesSpec keeps the two from drifting).

// Round plan of `lsbench run`: one discarded warm-up child, the timed
// children with tracing off, then one traced child per workload.
const (
	warmupRounds = 1
	timedRounds  = 5
)

// contractSeconds is BENCHMARK.json's run_seconds: how long one driver
// invocation spends on timed rounds. The driver's cap on a whole check
// (4 + 22 invocations per listed workload and two builds in 57 min)
// leaves ~31 s per invocation with four workloads listed, of which ~5 s
// go to the untimed reference run, the warm-up round and the build check.
const contractSeconds = 26

// pholdLPs is the LP count of every PHOLD workload; the cluster splits
// them evenly over clusterWorkers loopback workers.
const (
	pholdLPs       = 64
	clusterWorkers = 2
	pholdRemote    = 0.2
	pholdLookahead = 1.0
)

// Sizes are constants: event counts are exact and never adapt to the
// clock. They are the issue's shapes with the horizons cut so that one
// round takes about a second on the 2-core reference host: a driver
// invocation measures for contractSeconds, and its quartiles need a
// couple of dozen rounds in that. See README.md "Sizes".
const (
	holdPending = 10000
	holdHorizon = 500.0 // ~5.0 M events

	tierRuns    = 200
	tierHorizon = 4000.0

	fedHorizon = 15000.0 // ~16 events per window

	denseJobs, denseWork, denseFactor = 64, 200, 4.0
	denseHorizon                      = 600.0 // ~1000 events per window

	sparseJobs, sparseWork, sparseFactor = 1, 0, 64.0
	sparseHorizon                        = 40000.0 // ~1 event per window

	durableHorizon         = 400.0
	durableCheckpointEvery = 16
)

// tierLinks is the T0->T1 capacity sweep of the paper's C6 study.
var tierLinks = []float64{0.622, 1.25, 2.5, 10, 30, 40}

type workloadSpec struct {
	name string
	why  string
	// lanes is the number of goroutines that execute model events; a
	// result is tagged overhead-only when the host has fewer CPUs.
	lanes int
	// gated workloads are the ones BENCHMARK.json lists, so the ones the
	// PR driver runs and holds to the bounds. The driver's time cap is
	// shared by all listed workloads, and the shared reference host is
	// only steady over runs of half a minute: four fit. The other two
	// are the ones whose cost is syscalls and fdatasync, which that host
	// disturbs most; `lsbench run`, `compare` and `selfcheck` still
	// cover all six. See README.md "What the driver runs".
	gated bool
}

var workloads = []workloadSpec{
	{"seq-hold", "one des.Engine on the heap FEL, hold model: eventq and des dispatch do all the work, pool/parsim/distsim none", 1, true},
	{"tier-study", "the paper's C6 T0/T1 link sweep in monarc: des processes, netsim flows, replication agent; saturated links carry a deep backlog", 1, true},
	{"fed-smallwin", "parsim federation, 64 LPs on 2 pool workers, ~16 events per window: pool barrier, outbox merge and deliver dominate", 2, true},
	{"cluster-dense", "distsim coordinator and 2 loopback-TCP workers, ~1000 events per window: model execution dominates, few large frames", 2, true},
	{"cluster-sparse", "same cluster, ~1 event per window: frame codec, link, coordinator routing and syscalls are the whole cost", 2, false},
	{"cluster-durable", "cluster-dense with journal fdatasync, checkpoint every 16 windows and obs piggyback: prices durability and telemetry", 2, false},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

type metricSpec struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median
	layer  string  // per-layer only
	moves  string  // per-layer only: the (metric, workload) it should move
}

// failedFrac is reported by `lsbench run` beside the end-to-end
// metrics. It is not in BENCHMARK.json's end_to_end list because it is
// 0 on every healthy run (the contract asks for metrics that are never
// 0); the driver reads the same fact from "attempted" and "failed".
const failedFrac = "failed_frac"

// setupFloorS: set-up differences below this are ignored by compare.
const setupFloorS = 0.005

// The bounds are what the reference host can hold, not what the issue
// hoped for (10 %, 5 % on the sequential workloads). That host is a
// 2-vCPU guest on a shared machine whose speed wanders by 10 % over
// minutes and drops by a quarter (by half on the workloads that
// synchronise two threads) for a minute at a time; ten invocations of
// one binary spread 5-15 % between their quartiles even at 26 s each.
// Hence 25 %, the contract's maximum, on all three. See README.md
// "Bounds".
var endToEnd = []metricSpec{
	{name: "events_per_s", unit: "events/s", better: "higher", bound: 0.25},
	{name: "cpu_s_per_mevent", unit: "cpu-s/Mevent", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

var perLayer = []metricSpec{
	{name: "eventq.hold_ns", unit: "ns", better: "lower", layer: "eventq", moves: "events_per_s on seq-hold most, tier-study; none on cluster-sparse"},
	{name: "eventq.max_depth", unit: "count", better: "lower", layer: "eventq", moves: "sets the depth the hold probe runs at"},

	{name: "des.executed", unit: "count", better: "higher", layer: "des", moves: "exact; the numerator of events_per_s"},
	{name: "des.scheduled", unit: "count", better: "lower", layer: "des", moves: "events_per_s on tier-study (pushes far outnumber pops there)"},
	{name: "des.dispatch_ns", unit: "ns", better: "lower", layer: "des", moves: "events_per_s, cpu_s_per_mevent on seq-hold"},
	{name: "des.callback_ns_p50", unit: "ns", better: "lower", layer: "des", moves: "events_per_s on cluster-dense"},
	{name: "des.callback_ns_p99", unit: "ns", better: "lower", layer: "des", moves: "events_per_s on cluster-dense, tier-study"},
	{name: "des.callback_share", unit: "fraction", better: "higher", layer: "des", moves: "high on cluster-dense, near zero on cluster-sparse"},
	{name: "des.process_switch_ns", unit: "ns", better: "lower", layer: "des", moves: "events_per_s on tier-study only"},

	{name: "pool.run_empty_ns", unit: "ns", better: "lower", layer: "pool", moves: "events_per_s on fed-smallwin; none on seq-hold, cluster-* at Threads=1"},

	{name: "parsim.windows", unit: "count", better: "lower", layer: "parsim", moves: "exact; multiplies every per-window cost on fed-smallwin"},
	{name: "parsim.idle_skips", unit: "count", better: "higher", layer: "parsim", moves: "events_per_s on fed-smallwin"},
	{name: "parsim.window_us", unit: "us", better: "lower", layer: "parsim", moves: "events_per_s on fed-smallwin"},
	{name: "parsim.barrier_wait_ns_p50", unit: "ns", better: "lower", layer: "parsim", moves: "events_per_s on fed-smallwin"},
	{name: "parsim.barrier_wait_ns_p99", unit: "ns", better: "lower", layer: "parsim", moves: "events_per_s on fed-smallwin"},
	{name: "parsim.worker_util", unit: "fraction", better: "higher", layer: "parsim", moves: "cpu_s_per_mevent on fed-smallwin"},
	{name: "parsim.checkpoint_ms", unit: "ms", better: "lower", layer: "parsim", moves: "none of the timed runs; prices Federation.Checkpoint"},

	{name: "worker.window_exec_ns", unit: "ns", better: "lower", layer: "distsim-worker", moves: "events_per_s on cluster-dense, cluster-durable; little on cluster-sparse"},
	{name: "worker.deliver_ns", unit: "ns", better: "lower", layer: "distsim-worker", moves: "events_per_s on cluster-dense"},
	{name: "worker.events_executed", unit: "count", better: "higher", layer: "distsim-worker", moves: "exact; equals des.executed on cluster-*"},
	{name: "worker.busy_share", unit: "fraction", better: "higher", layer: "distsim-worker", moves: "caps what a wire.* gain can buy on cluster-dense"},

	{name: "wire.bytes_per_window", unit: "bytes", better: "lower", layer: "distsim-wire", moves: "events_per_s on cluster-dense (per-byte cost)"},
	{name: "wire.frames_per_window", unit: "count", better: "lower", layer: "distsim-wire", moves: "events_per_s, cpu_s_per_mevent on cluster-sparse (per-frame cost)"},
	{name: "wire.marshal_ns_per_event", unit: "ns", better: "lower", layer: "distsim-wire", moves: "cpu_s_per_mevent on cluster-dense"},
	{name: "wire.read_wait_share", unit: "fraction", better: "lower", layer: "distsim-wire", moves: "events_per_s on cluster-sparse"},
	{name: "wire.retransmits", unit: "count", better: "lower", layer: "distsim-wire", moves: "must stay 0 on a fault-free run"},

	{name: "coord.windows", unit: "count", better: "lower", layer: "distsim-coordinator", moves: "exact; multiplies every per-window cost on cluster-*"},
	{name: "coord.windows_skipped", unit: "count", better: "higher", layer: "distsim-coordinator", moves: "0 here: SkipIdle stays off"},
	{name: "coord.events_routed", unit: "count", better: "lower", layer: "distsim-coordinator", moves: "exact; wire bytes on cluster-dense"},
	{name: "coord.window_us_p50", unit: "us", better: "lower", layer: "distsim-coordinator", moves: "events_per_s on cluster-sparse"},
	{name: "coord.window_us_p99", unit: "us", better: "lower", layer: "distsim-coordinator", moves: "bounds wall time on all three cluster workloads"},
	{name: "coord.reconnects", unit: "count", better: "lower", layer: "distsim-coordinator", moves: "must stay 0; non-zero fails the round"},
	{name: "coord.recoveries", unit: "count", better: "lower", layer: "distsim-coordinator", moves: "must stay 0; non-zero fails the round"},

	{name: "journal.append_us", unit: "us", better: "lower", layer: "distsim-journal", moves: "events_per_s on cluster-durable only; barely cpu_s_per_mevent"},
	{name: "journal.bytes_per_window", unit: "bytes", better: "lower", layer: "distsim-journal", moves: "events_per_s on cluster-durable only"},

	{name: "checkpoint.count", unit: "count", better: "lower", layer: "checkpoint", moves: "exact; cluster-durable only"},
	{name: "checkpoint.bytes", unit: "bytes", better: "lower", layer: "checkpoint", moves: "events_per_s on cluster-durable only"},
	{name: "checkpoint.write_ms", unit: "ms", better: "lower", layer: "checkpoint", moves: "events_per_s on cluster-durable only"},

	{name: "obs.overhead_frac", unit: "fraction", better: "lower", layer: "obs", moves: "traced wall against untraced median, every workload; ROADMAP item 4d budget"},
	{name: "obs.piggyback_ns", unit: "ns", better: "lower", layer: "obs", moves: "events_per_s on cluster-durable"},
	{name: "obs.spans_dropped", unit: "count", better: "lower", layer: "obs", moves: "trace completeness on fed-smallwin, cluster-durable"},

	{name: "monarc.point_ms_min", unit: "ms", better: "lower", layer: "monarc", moves: "events_per_s on tier-study (unsaturated points)"},
	{name: "monarc.point_ms_max", unit: "ms", better: "lower", layer: "monarc", moves: "events_per_s on tier-study (saturated points)"},
	{name: "monarc.events_per_point", unit: "count", better: "higher", layer: "monarc", moves: "exact; tier-study only"},
	{name: "netsim.transfer_ns", unit: "ns", better: "lower", layer: "netsim", moves: "events_per_s on tier-study only"},
	{name: "replication.shipped", unit: "count", better: "higher", layer: "replication", moves: "exact; tier-study only"},

	{name: "runtime.alloc_bytes_per_event", unit: "bytes", better: "lower", layer: "runtime", moves: "cpu_s_per_mevent on all; guards the zero-alloc paths"},
	{name: "runtime.mallocs_per_event", unit: "count", better: "lower", layer: "runtime", moves: "cpu_s_per_mevent on all"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", layer: "runtime", moves: "cpu_s_per_mevent on tier-study, cluster-dense"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", layer: "runtime", moves: "events_per_s on tier-study"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower", layer: "runtime", moves: "memory, all workloads"},

	{name: "layers.attributed_frac", unit: "fraction", better: "higher", layer: "closure", moves: "share of the traced run wall the layer table explains"},
	{name: "layers.unattributed_frac", unit: "fraction", better: "lower", layer: "closure", moves: "the rest; the argument for in-program spans"},
}
