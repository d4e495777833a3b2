package simgrid

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

func TestRunTraceReplaysAllTasks(t *testing.T) {
	src := rng.New(5)
	mix := workload.NewMix(src, workload.JobClass{
		Name: "t", Weight: 1,
		Ops: func() float64 { return src.Exp(1 / 2e9) },
	})
	trace := workload.GenerateTrace(mix, workload.Fixed(0.5), 40)
	cfg := DefaultConfig()
	res := RunTrace(cfg, trace)
	if res.Tasks != 40 {
		t.Fatalf("tasks = %d", res.Tasks)
	}
	if res.Makespan < trace[len(trace)-1].Time {
		t.Fatalf("makespan %v before last arrival %v", res.Makespan, trace[len(trace)-1].Time)
	}
}

func TestRunTraceSameTraceDifferentPlatforms(t *testing.T) {
	// The point of trace-driven input: one workload, many platforms.
	src := rng.New(9)
	mix := workload.NewMix(src, workload.JobClass{
		Name: "t", Weight: 1,
		Ops: func() float64 { return src.Exp(1 / 8e9) },
	})
	trace := workload.GenerateTrace(mix, workload.Fixed(0.2), 60)
	slow := DefaultConfig()
	slow.MachineSpeeds = []float64{5e8, 5e8}
	fast := DefaultConfig()
	fast.MachineSpeeds = []float64{4e9, 4e9, 4e9, 4e9}
	rSlow := RunTrace(slow, trace)
	rFast := RunTrace(fast, trace)
	if rFast.MeanResponse >= rSlow.MeanResponse {
		t.Fatalf("fast platform response %v not below slow %v",
			rFast.MeanResponse, rSlow.MeanResponse)
	}
}

func TestRunTraceBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RunTrace(Config{}, nil)
}
