package faults

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/scheduler"
)

func TestClusterFailKillsRunningJobs(t *testing.T) {
	e := des.NewEngine()
	c := scheduler.NewCluster(e, "c", 2, 100, scheduler.FCFS)
	var outcomes []bool
	for i := 0; i < 2; i++ {
		c.Submit(&scheduler.Job{ID: i, Name: "j", Ops: 1000}, func(j *scheduler.Job) {
			outcomes = append(outcomes, j.Failed)
		})
	}
	e.Schedule(5, func() { c.Fail() })
	e.Run()
	if len(outcomes) != 2 || !outcomes[0] || !outcomes[1] {
		t.Fatalf("outcomes = %v", outcomes)
	}
	if !c.Offline() {
		t.Fatal("cluster not offline after Fail")
	}
	if c.Running() != 0 || c.FreeCores() != 2 {
		t.Fatal("cores not reclaimed")
	}
}

func TestQueuedJobsSurviveCrashAndRunAfterRecover(t *testing.T) {
	e := des.NewEngine()
	c := scheduler.NewCluster(e, "c", 1, 100, scheduler.FCFS)
	var finished []int
	for i := 0; i < 3; i++ {
		c.Submit(&scheduler.Job{ID: i, Name: "j", Ops: 1000}, func(j *scheduler.Job) {
			if !j.Failed {
				finished = append(finished, j.ID)
			}
		})
	}
	e.Schedule(5, func() { c.Fail() })     // kills job 0
	e.Schedule(50, func() { c.Recover() }) // jobs 1,2 then run
	e.Run()
	if len(finished) != 2 || finished[0] != 1 || finished[1] != 2 {
		t.Fatalf("finished = %v", finished)
	}
	// Job 1 starts at recovery time.
	if e.Now() != 70 {
		t.Fatalf("end = %v, want 70 (50 + 2×10)", e.Now())
	}
}

func TestFailIdempotentAndRecoverIdempotent(t *testing.T) {
	e := des.NewEngine()
	c := scheduler.NewCluster(e, "c", 1, 100, scheduler.FCFS)
	c.Fail()
	c.Fail()
	c.Recover()
	c.Recover()
	if c.Offline() {
		t.Fatal("offline after recover")
	}
}

func TestInjectorCausesFailures(t *testing.T) {
	e := des.NewEngine(des.WithSeed(5))
	c := scheduler.NewCluster(e, "c", 4, 100, scheduler.FCFS)
	inj := NewInjector(e, c, 1.0, 50, 10)
	inj.Start(1000)
	// Keep the cluster busy with a steady stream.
	done, failed := 0, 0
	var submit func(i int)
	submit = func(i int) {
		if i >= 200 {
			return
		}
		c.Submit(&scheduler.Job{ID: i, Name: "j", Ops: 500}, func(j *scheduler.Job) {
			if j.Failed {
				failed++
			} else {
				done++
			}
		})
		e.Schedule(5, func() { submit(i + 1) })
	}
	e.Schedule(0, func() { submit(0) })
	e.RunUntil(1500)
	if inj.Failures == 0 {
		t.Fatal("no failures injected")
	}
	if failed == 0 {
		t.Fatal("no jobs killed despite failures")
	}
	if inj.Downtime <= 0 {
		t.Fatal("no downtime recorded")
	}
	if uint64(failed) != inj.KilledJobs {
		t.Fatalf("failed %d != killed %d", failed, inj.KilledJobs)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	run := func() (uint64, float64) {
		e := des.NewEngine(des.WithSeed(5))
		c := scheduler.NewCluster(e, "c", 2, 100, scheduler.FCFS)
		inj := NewInjector(e, c, 1.2, 30, 5)
		inj.Start(500)
		e.RunUntil(600)
		return inj.Failures, inj.Downtime
	}
	f1, d1 := run()
	f2, d2 := run()
	if f1 != f2 || d1 != d2 {
		t.Fatalf("nondeterministic: %d/%v vs %d/%v", f1, d1, f2, d2)
	}
}

func TestRetryHarnessCompletesThroughChurn(t *testing.T) {
	e := des.NewEngine(des.WithSeed(11))
	c := scheduler.NewCluster(e, "c", 2, 100, scheduler.FCFS)
	inj := NewInjector(e, c, 1.0, 40, 5)
	inj.Start(3000)
	r := NewRetryHarness(c, 100, nil)
	finished := 0
	r.onDone = func(j *scheduler.Job) {
		if !j.Failed {
			finished++
		}
	}
	for i := 0; i < 50; i++ {
		r.Submit(&scheduler.Job{ID: i, Name: "j", Ops: 800})
	}
	e.RunUntil(5000)
	if finished != 50 {
		t.Fatalf("finished = %d of 50 (retries %d, gave up %d)", finished, r.Retries, r.GaveUp)
	}
	if r.Retries == 0 {
		t.Fatal("no retries despite churn")
	}
	if r.GaveUp != 0 {
		t.Fatalf("gave up %d with generous retry budget", r.GaveUp)
	}
}

func TestRetryHarnessGivesUp(t *testing.T) {
	e := des.NewEngine()
	c := scheduler.NewCluster(e, "c", 1, 100, scheduler.FCFS)
	r := NewRetryHarness(c, 2, nil)
	gaveUpJob := false
	r.onDone = func(j *scheduler.Job) { gaveUpJob = j.Failed }
	r.Submit(&scheduler.Job{ID: 0, Name: "doomed", Ops: 1e6})
	// Crash right before every completion.
	for i := 1; i <= 4; i++ {
		i := i
		e.Schedule(float64(i)*100, func() { c.Fail(); c.Recover() })
	}
	e.RunUntil(1e6)
	e.Run()
	if r.GaveUp != 1 || !gaveUpJob {
		t.Fatalf("gaveUp = %d (%v)", r.GaveUp, gaveUpJob)
	}
	if r.Retries != 2 {
		t.Fatalf("retries = %d, want 2", r.Retries)
	}
}

func TestInjectorValidation(t *testing.T) {
	e := des.NewEngine()
	c := scheduler.NewCluster(e, "c", 1, 1, scheduler.FCFS)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewInjector(e, c, 0, 1, 1)
}

// TestStartPinnedUnderRetries pins the injector's failure schedule
// under a busy cluster with the retry harness resubmitting the carnage:
// the constants were recorded from the goroutine process loop Start
// replaced, so the op loop keeps its draws, its kills and its clock.
func TestStartPinnedUnderRetries(t *testing.T) {
	e := des.NewEngine(des.WithSeed(11))
	c := scheduler.NewCluster(e, "c", 2, 100, scheduler.FCFS)
	inj := NewInjector(e, c, 1.0, 40, 5)
	inj.Start(3000)
	r := NewRetryHarness(c, 100, nil)
	for i := 0; i < 50; i++ {
		r.Submit(&scheduler.Job{ID: i, Name: "j", Ops: 800})
	}
	e.RunUntil(5000)
	got := [...]uint64{inj.Failures, inj.KilledJobs, r.Retries,
		math.Float64bits(inj.Downtime), math.Float64bits(e.Now())}
	want := [...]uint64{71, 16, 16, 0x40762cf3ede34b09, 0x40a79880ba2d1de4}
	if got != want {
		t.Fatalf("failures, killed, retries, downtime, end = %#x, want %#x", got, want)
	}
}

// TestInjectorCheckpointRestoreMidWindow checkpoints an op-based
// injector at many points — including instants where a Weibull crash
// has fired and the cluster sits broken awaiting repair — and requires
// the restored run to finish with counters and engine state
// bit-identical to the uninterrupted run. The injector's rng state
// rides in AppendState; without it, Derive would restart the failure
// stream at its origin and the restored run would replay the first
// crashes instead of continuing to the next ones.
func TestInjectorCheckpointRestoreMidWindow(t *testing.T) {
	const (
		seed    = 7
		horizon = 200.0
		shape   = 1.2
		scale   = 20.0
		repair  = 8.0
	)
	build := func() (*des.Engine, *Injector) {
		e := des.NewEngine(des.WithSeed(seed))
		c := scheduler.NewCluster(e, "c", 2, 100, scheduler.FCFS)
		inj := NewInjector(e, c, shape, scale, repair)
		inj.Start(horizon)
		return e, inj
	}

	// Reference: the uninterrupted run.
	refE, refInj := build()
	refE.RunUntil(horizon + 100)
	if refInj.Failures < 3 {
		t.Fatalf("reference run only failed %d times; pick a harder seed", refInj.Failures)
	}
	refCkpt, err := appendState(refE)
	if err != nil {
		t.Fatal(err)
	}
	refState, err := appendState(refInj)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 10.0; cut < horizon; cut += 10 {
		// Run to the cut, snapshot engine + injector.
		e1, inj1 := build()
		e1.RunUntil(cut)
		ckpt, err := appendState(e1)
		if err != nil {
			t.Fatalf("cut %v: %v", cut, err)
		}
		mid, err := appendState(inj1)
		if err != nil {
			t.Fatalf("cut %v: %v", cut, err)
		}

		// Fresh everything; restore; finish.
		e2, inj2 := build()
		if err := e2.RestoreState(checkpoint.NewDec(ckpt)); err != nil {
			t.Fatalf("cut %v: restore: %v", cut, err)
		}
		if err := inj2.RestoreState(checkpoint.NewDec(mid)); err != nil {
			t.Fatalf("cut %v: restore injector: %v", cut, err)
		}
		e2.RunUntil(horizon + 100)

		if inj2.Failures != refInj.Failures || inj2.KilledJobs != refInj.KilledJobs || inj2.Downtime != refInj.Downtime {
			t.Fatalf("cut %v: restored run (%d, %d, %v) != uninterrupted (%d, %d, %v)",
				cut, inj2.Failures, inj2.KilledJobs, inj2.Downtime,
				refInj.Failures, refInj.KilledJobs, refInj.Downtime)
		}
		got, err := appendState(inj2)
		if err != nil {
			t.Fatalf("cut %v: %v", cut, err)
		}
		if !bytes.Equal(got, refState) {
			t.Fatalf("cut %v: restored injector state diverges from uninterrupted run", cut)
		}
		final, err := appendState(e2)
		if err != nil {
			t.Fatalf("cut %v: %v", cut, err)
		}
		if !bytes.Equal(final, refCkpt) {
			t.Fatalf("cut %v: restored engine snapshot diverges from uninterrupted run", cut)
		}
	}
}

// appendState returns the state c writes.
func appendState(c checkpoint.Checkpointable) ([]byte, error) {
	var enc checkpoint.Enc
	err := c.AppendState(&enc)
	return enc.Bytes(), err
}

// TestInjectorStateRejectsGarbage pins the typed-error contract of
// RestoreState.
func TestInjectorStateRejectsGarbage(t *testing.T) {
	e := des.NewEngine()
	c := scheduler.NewCluster(e, "c", 1, 100, scheduler.FCFS)
	inj := NewInjector(e, c, 1, 1, 1)
	for _, bad := range [][]byte{nil, {1}, {0, 0, 0}, make([]byte, 64)} {
		if err := inj.RestoreState(checkpoint.NewDec(bad)); err == nil {
			t.Fatalf("RestoreState(%v) accepted garbage", bad)
		}
	}
}

// TestInjectorRefusedStateLeavesStream restores an injector from a
// state whose 40 stream bytes are zero, which no xoshiro256++ stream
// has: RestoreState must return the error and leave the failure stream
// where it was, drawing what an untouched injector draws, not zeros.
func TestInjectorRefusedStateLeavesStream(t *testing.T) {
	build := func() *Injector {
		e := des.NewEngine(des.WithSeed(3))
		return NewInjector(e, scheduler.NewCluster(e, "c", 1, 100, scheduler.FCFS), 1, 1, 1)
	}
	untouched, restored := build(), build()
	var enc checkpoint.Enc
	enc.U64(1)
	enc.U64(0)
	enc.F64(0)
	enc.Bool(false)
	enc.Raw(make([]byte, 40))
	if err := restored.RestoreState(checkpoint.NewDec(enc.Bytes())); err == nil {
		t.Fatal("RestoreState accepted an all-zero stream state")
	}
	for i := 0; i < 4; i++ {
		if got, want := restored.src.Uint64(), untouched.src.Uint64(); got != want {
			t.Fatalf("draw %d after the refused state is %#x, an untouched injector draws %#x", i, got, want)
		}
	}
}
