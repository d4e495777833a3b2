package scheduler

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/des"
)

// Discipline selects the local queue ordering of a Cluster.
type Discipline int

const (
	// FCFS starts jobs strictly in arrival order.
	FCFS Discipline = iota
	// SJF reorders the wait queue by smallest compute demand.
	SJF
	// EDF reorders the wait queue by earliest deadline.
	EDF
	// EASYBackfill is aggressive (EASY) backfilling: arrival order,
	// but a later job may start out of order if doing so cannot delay
	// the reserved start of the queue's head job.
	EASYBackfill
)

// String returns the discipline name.
func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "fcfs"
	case SJF:
		return "sjf"
	case EDF:
		return "edf"
	case EASYBackfill:
		return "easy-backfill"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Cluster is a space-shared multiprocessor with an explicit wait queue
// and a pluggable discipline — the local resource-management system of
// a grid site. It performs its own core accounting (it does not use
// the site CPU's FCFS slots) so that disciplines can reorder freely.
type Cluster struct {
	e          *des.Engine
	k          *kind
	name       string
	cores      int
	speed      float64 // ops/second per core
	discipline Discipline

	free    int
	queue   []*clusterEntry
	running []*clusterEntry
	offline bool

	// accounting
	started   uint64
	completed uint64
	busyArea  float64
	lastAcct  float64
}

// clusterEntry is a submitted job's record, in the engine's entry
// table from Submit until the job ends.
type clusterEntry struct {
	c      *Cluster
	job    *Job
	eta    float64 // scheduled finish time once started
	onDone func(*Job)
	timer  des.Timer // completion event, cancellable on failure
	self   []byte    // the entry's op argument
}

// kind holds the job-end op every cluster on one engine schedules, and
// the free list of their entries.
type kind struct {
	entries des.Table[clusterEntry]
	jobEnd  des.Op
}

func newKind(e *des.Engine) *kind {
	k := &kind{}
	k.jobEnd = e.RegisterOp("cluster:jobend", func(self []byte) {
		en := k.entries.At(self)
		en.c.end(en)
	})
	return k
}

// NewCluster creates a cluster with the given core count and per-core
// speed under the given discipline.
func NewCluster(e *des.Engine, name string, cores int, speed float64, d Discipline) *Cluster {
	if cores <= 0 || speed <= 0 {
		panic(fmt.Sprintf("scheduler: NewCluster(%q, cores=%d, speed=%v)", name, cores, speed))
	}
	return &Cluster{e: e, k: des.PerEngine(e, newKind), name: name, cores: cores, speed: speed, discipline: d, free: cores}
}

// Name returns the cluster name.
func (c *Cluster) Name() string { return c.name }

// Cores returns total cores.
func (c *Cluster) Cores() int { return c.cores }

// FreeCores returns currently idle cores.
func (c *Cluster) FreeCores() int { return c.free }

// QueueLen returns the number of waiting jobs.
func (c *Cluster) QueueLen() int { return len(c.queue) }

// Running returns the number of executing jobs.
func (c *Cluster) Running() int { return len(c.running) }

// Completed returns the number of finished jobs.
func (c *Cluster) Completed() uint64 { return c.completed }

// Utilization returns time-averaged busy-core fraction since t=0.
func (c *Cluster) Utilization() float64 {
	now := c.e.Now()
	if now <= 0 {
		return 0
	}
	area := c.busyArea + float64(c.cores-c.free)*(now-c.lastAcct)
	return area / (float64(c.cores) * now)
}

// Backlog returns the summed remaining core-seconds of queued work —
// the quantity MCT brokering estimates completion times from.
func (c *Cluster) Backlog() float64 {
	sum := 0.0
	for _, en := range c.queue {
		sum += en.job.Ops / c.speed * float64(en.job.Width())
	}
	return sum
}

// EstimateCompletion returns a lower-bound estimate of when a job with
// the given demand would finish if submitted now: queue backlog spread
// over all cores, plus its own runtime.
func (c *Cluster) EstimateCompletion(ops float64, width int) float64 {
	inService := 0.0
	now := c.e.Now()
	for _, en := range c.running {
		inService += math.Max(0, en.eta-now) * float64(en.job.Width())
	}
	pending := (inService + c.Backlog()) / float64(c.cores)
	return now + pending + ops/c.speed
}

// Submit enqueues a job; onDone fires at completion. It panics unless
// the job's Ops are finite and non-negative and its Width fits.
func (c *Cluster) Submit(job *Job, onDone func(*Job)) {
	if !(job.Ops >= 0) || math.IsInf(job.Ops, 1) {
		panic(fmt.Sprintf("scheduler: %v has %v ops", job, job.Ops))
	}
	if job.Width() > c.cores {
		panic(fmt.Sprintf("scheduler: %v needs %d cores, cluster %q has %d",
			job, job.Width(), c.name, c.cores))
	}
	job.Submitted = c.e.Now()
	en, self := c.k.entries.Get()
	*en = clusterEntry{c: c, job: job, onDone: onDone, self: self}
	c.queue = append(c.queue, en)
	c.trySchedule()
}

// Run is Submit's blocking form: it submits the job and blocks the
// process until the job completes, or until Fail kills it, in which
// case the job comes back with Failed set. The process resumes in a
// zero-delay event after the job's end, not inside that event.
func (c *Cluster) Run(p *des.Process, job *Job) {
	p.Await(func(op des.Op, arg []byte) {
		c.Submit(job, func(*Job) { c.e.ScheduleOp(0, op, arg) })
	})
}

func (c *Cluster) account() {
	now := c.e.Now()
	c.busyArea += float64(c.cores-c.free) * (now - c.lastAcct)
	c.lastAcct = now
}

// start launches an entry immediately.
func (c *Cluster) start(en *clusterEntry) {
	c.account()
	c.free -= en.job.Width()
	en.job.Started = c.e.Now()
	runtime := en.job.Ops / c.speed
	en.eta = c.e.Now() + runtime
	c.running = append(c.running, en)
	c.started++
	en.timer = c.e.ScheduleOp(runtime, c.k.jobEnd, en.self)
}

// end is a running job's completion event.
func (c *Cluster) end(en *clusterEntry) {
	c.account()
	c.free += en.job.Width()
	for i, r := range c.running {
		if r == en {
			c.running = append(c.running[:i], c.running[i+1:]...)
			break
		}
	}
	en.job.Finished = c.e.Now()
	en.job.Done = true
	c.completed++
	c.trySchedule()
	if en.onDone != nil {
		en.onDone(en.job)
	}
	c.k.entries.Put(en.self)
}

// Offline reports whether the cluster is failed (not accepting starts).
func (c *Cluster) Offline() bool { return c.offline }

// Fail crashes the cluster: every running job is aborted (marked
// Failed, completion callbacks fire with Failed set) and no queued job
// starts until Recover. Queued jobs survive the crash.
func (c *Cluster) Fail() {
	if c.offline {
		return
	}
	c.account()
	c.offline = true
	victims := c.running
	c.running = nil
	for _, en := range victims {
		en.timer.Cancel()
		c.free += en.job.Width()
		en.job.Finished = c.e.Now()
		en.job.Done = true
		en.job.Failed = true
		en.job.FailWhy = "cluster failure"
		if en.onDone != nil {
			en.onDone(en.job)
		}
		c.k.entries.Put(en.self)
	}
}

// Recover brings a failed cluster back online and resumes scheduling.
func (c *Cluster) Recover() {
	if !c.offline {
		return
	}
	c.account()
	c.offline = false
	c.trySchedule()
}

// RunningJobs returns the jobs currently executing, in start order.
func (c *Cluster) RunningJobs() []*Job {
	out := make([]*Job, len(c.running))
	for i, en := range c.running {
		out[i] = en.job
	}
	return out
}

// popHead removes and returns the queue's head. Emptying the queue
// keeps its array, so a cluster that starts each job as it arrives
// queues the next one without allocating.
func (c *Cluster) popHead() *clusterEntry {
	en := c.queue[0]
	c.queue[0] = nil
	if len(c.queue) == 1 {
		c.queue = c.queue[:0]
	} else {
		c.queue = c.queue[1:]
	}
	return en
}

// trySchedule starts every job the discipline permits.
func (c *Cluster) trySchedule() {
	if c.offline {
		return
	}
	switch c.discipline {
	case SJF:
		sort.SliceStable(c.queue, func(i, j int) bool { return c.queue[i].job.Ops < c.queue[j].job.Ops })
	case EDF:
		sort.SliceStable(c.queue, func(i, j int) bool {
			di, dj := c.queue[i].job.Deadline, c.queue[j].job.Deadline
			if di == 0 {
				di = math.Inf(1)
			}
			if dj == 0 {
				dj = math.Inf(1)
			}
			return di < dj
		})
	}
	// In-order start for FCFS/SJF/EDF.
	if c.discipline != EASYBackfill {
		for len(c.queue) > 0 && c.queue[0].job.Width() <= c.free {
			c.start(c.popHead())
		}
		return
	}
	// EASY backfilling.
	for len(c.queue) > 0 && c.queue[0].job.Width() <= c.free {
		c.start(c.popHead())
	}
	if len(c.queue) == 0 {
		return
	}
	// Head job blocked: compute its reservation (shadow time) — the
	// earliest time enough cores will be free, assuming running jobs
	// finish at their ETAs.
	head := c.queue[0]
	type rel struct {
		t     float64
		cores int
	}
	rels := make([]rel, 0, len(c.running))
	for _, r := range c.running {
		rels = append(rels, rel{t: r.eta, cores: r.job.Width()})
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].t < rels[j].t })
	avail := c.free
	shadow := math.Inf(1)
	extra := 0 // cores free at shadow time beyond the head's need
	for _, r := range rels {
		avail += r.cores
		if avail >= head.job.Width() {
			shadow = r.t
			extra = avail - head.job.Width()
			break
		}
	}
	// Backfill candidates (after the head, in queue order): start a
	// job now iff it fits in the free cores AND either finishes by
	// the shadow time or uses only the extra cores.
	now := c.e.Now()
	for i := 1; i < len(c.queue); {
		en := c.queue[i]
		w := en.job.Width()
		fits := w <= c.free
		endsInTime := now+en.job.Ops/c.speed <= shadow
		usesSpare := w <= minInt(c.free, extra)
		if fits && (endsInTime || usesSpare) {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			if usesSpare && !endsInTime {
				extra -= w
			}
			c.start(en)
			continue
		}
		i++
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
