// Package faults implements failure injection for grid scenarios:
// clusters crash according to a Weibull time-to-failure process (the
// standard reliability model for computing hardware), killing their
// running jobs, and come back after a repair time. A retry harness
// resubmits killed work.
//
// Large scale distributed systems fail routinely — the paper motivates
// simulation precisely because "analytical validations are prohibited
// by the scale of the encountered problems" — and failure behavior is
// part of the host-characteristics axis of the taxonomy. The injector
// lets every scheduling and replication experiment be re-run under
// churn.
package faults

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/scheduler"
)

// Injector crashes and repairs one cluster.
type Injector struct {
	// TTFShape/TTFScale parameterize the Weibull time-to-failure
	// (shape < 1: infant mortality; 1: memoryless; > 1: wear-out).
	TTFShape float64
	TTFScale float64
	// RepairMean is the mean of the lognormal repair time.
	RepairMean  float64
	RepairSigma float64

	// Stats.
	Failures   uint64
	KilledJobs uint64
	Downtime   float64

	e       *des.Engine
	cluster *scheduler.Cluster
	src     *rng.Source
	stopped bool

	crashOp   des.Op
	recoverOp des.Op
}

// NewInjector attaches a failure process to the cluster. Streams are
// derived from the engine seed and the cluster name, so runs remain
// deterministic.
func NewInjector(e *des.Engine, cluster *scheduler.Cluster, ttfShape, ttfScale, repairMean float64) *Injector {
	if ttfShape <= 0 || ttfScale <= 0 || repairMean <= 0 {
		panic(fmt.Sprintf("faults: NewInjector(shape=%v, scale=%v, repair=%v)", ttfShape, ttfScale, repairMean))
	}
	return &Injector{
		TTFShape: ttfShape, TTFScale: ttfScale,
		RepairMean: repairMean, RepairSigma: 0.5,
		e: e, cluster: cluster,
		src: e.Stream("faults:" + cluster.Name()),
	}
}

// Start launches the crash/repair loop until the horizon (0 = forever,
// which keeps the event queue busy — use only with RunUntil). Its
// crash and repair steps are registered ops, so every pending crash and
// repair serializes into an engine checkpoint and the loop survives
// Engine.RestoreState. The injector's stream draws a Weibull time to
// failure, then a lognormal repair time, repeating.
//
// The ops are registered under the cluster's name: a second injector
// for a same-named cluster on one engine panics.
//
// A restored run calls Start again on a fresh engine before
// Engine.RestoreState (the ops are resolved by name); the initial crash
// it schedules is discarded when RestoreState overwrites the queue, and
// the checkpointed crash/repair events take over.
func (inj *Injector) Start(horizon float64) {
	name := inj.cluster.Name()
	inj.crashOp = inj.e.RegisterOp("faults.crash:"+name, func([]byte) {
		if inj.stopped {
			return
		}
		if horizon > 0 && inj.e.Now() >= horizon {
			return
		}
		killed := len(inj.cluster.RunningJobs())
		inj.cluster.Fail()
		inj.Failures++
		inj.KilledJobs += uint64(killed)
		down := inj.src.LogNormal(0, inj.RepairSigma) * inj.RepairMean
		// The repair duration rides in the op argument: a checkpoint
		// taken while the cluster is down restores with the downtime
		// accounting still pending, not lost.
		var enc checkpoint.Enc
		enc.F64(down)
		inj.e.ScheduleOp(down, inj.recoverOp, enc.Bytes())
	})
	inj.recoverOp = inj.e.RegisterOp("faults.recover:"+name, func(arg []byte) {
		d := checkpoint.NewDec(arg)
		down := d.F64()
		if err := d.Err(); err != nil {
			panic(fmt.Sprintf("faults: corrupt recover op argument: %v", err))
		}
		inj.Downtime += down
		inj.cluster.Recover()
		if inj.stopped {
			return
		}
		inj.e.ScheduleOp(inj.src.Weibull(inj.TTFShape, inj.TTFScale), inj.crashOp, nil)
	})
	inj.e.ScheduleOp(inj.src.Weibull(inj.TTFShape, inj.TTFScale), inj.crashOp, nil)
}

// Stop ends the loop: a pending crash does nothing, and a pending
// repair brings the cluster back without drawing another crash.
func (inj *Injector) Stop() { inj.stopped = true }

// AppendState implements checkpoint.Checkpointable: the counters plus
// the failure stream's exact rng state. The stream state matters —
// rng.Derive restarts a stream at its origin, so without it a restored
// injector would replay the run's first failures instead of its next
// ones.
func (inj *Injector) AppendState(enc *checkpoint.Enc) error {
	st, err := inj.src.MarshalBinary()
	if err != nil {
		return err
	}
	enc.U64(inj.Failures)
	enc.U64(inj.KilledJobs)
	enc.F64(inj.Downtime)
	enc.Bool(inj.stopped)
	enc.Raw(st)
	return nil
}

// RestoreState implements checkpoint.Checkpointable.
func (inj *Injector) RestoreState(d *checkpoint.Dec) error {
	failures := d.U64()
	killed := d.U64()
	downtime := d.F64()
	stopped := d.Bool()
	st := d.RawView()
	if err := d.Err(); err != nil {
		return fmt.Errorf("faults: corrupt injector state: %w", err)
	}
	if err := inj.src.UnmarshalBinary(st); err != nil {
		return fmt.Errorf("faults: restoring failure stream: %w", err)
	}
	inj.Failures = failures
	inj.KilledJobs = killed
	inj.Downtime = downtime
	inj.stopped = stopped
	return nil
}

// RetryHarness resubmits failed jobs to the cluster until they
// complete or exhaust MaxRetries.
type RetryHarness struct {
	Cluster    *scheduler.Cluster
	MaxRetries int

	Retries   uint64
	GaveUp    uint64
	Completed uint64

	attempts map[*scheduler.Job]int
	onDone   func(*scheduler.Job)
}

// NewRetryHarness wraps the cluster with retry-on-failure semantics.
// onDone fires once per job, when it finally completes or is given up.
func NewRetryHarness(cluster *scheduler.Cluster, maxRetries int, onDone func(*scheduler.Job)) *RetryHarness {
	return &RetryHarness{
		Cluster:    cluster,
		MaxRetries: maxRetries,
		attempts:   make(map[*scheduler.Job]int),
		onDone:     onDone,
	}
}

// Submit enters a job into the retry loop.
func (r *RetryHarness) Submit(job *scheduler.Job) {
	r.Cluster.Submit(job, r.handle)
}

func (r *RetryHarness) handle(job *scheduler.Job) {
	if !job.Failed {
		r.Completed++
		delete(r.attempts, job)
		if r.onDone != nil {
			r.onDone(job)
		}
		return
	}
	r.attempts[job]++
	if r.attempts[job] > r.MaxRetries {
		r.GaveUp++
		delete(r.attempts, job)
		if r.onDone != nil {
			r.onDone(job)
		}
		return
	}
	r.Retries++
	// Clear failure state and resubmit from scratch.
	job.Failed = false
	job.Done = false
	job.FailWhy = ""
	r.Cluster.Submit(job, r.handle)
}
