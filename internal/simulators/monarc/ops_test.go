package monarc

import (
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/obs"
)

// TestTierEventListIsSerializable: every event the tier model schedules
// is a registered op, so Engine.AppendState accepts its engine mid-run —
// just after the first flow completes, halfway (mid-backlog on the
// saturated links) and at the horizon — at every point of lsbench's
// sweep and for Run with analysis and T2 centres. Checkpointing is
// non-destructive: each run still ends exactly as an uninterrupted one.
func TestTierEventListIsSerializable(t *testing.T) {
	completions := 0
	check := func(name string, cfg Config, end float64) {
		t.Helper()
		m := newModel(cfg)
		flowEnded := false
		m.e.SetObserver(des.Observer{Hook: func(ev obs.Event) { flowEnded = flowEnded || ev.Label == "net:flowend" }})
		snapshot := func(at string) {
			t.Helper()
			if err := m.e.AppendState(&checkpoint.Enc{}); err != nil {
				t.Fatalf("%s, %s: %v", name, at, err)
			}
		}
		for !flowEnded && m.e.PeekTime() <= end/2 {
			m.e.Step()
		}
		if flowEnded {
			completions++
			snapshot("after a flow completion")
		}
		m.e.RunUntil(end / 2)
		snapshot("halfway")
		m.e.RunUntil(end)
		snapshot("at the horizon")
		if cfg.Horizon == 0 {
			m.e.Run() // drains what is left at end's instant
		}
		if got, want := exact(m.result()), exact(Run(cfg)); got != want {
			t.Fatalf("%s: checkpointed run\n got  %s\n want %s", name, got, want)
		}
	}
	links := []float64{0.622, 1.25, 2.5, 10, 30, 40}
	for _, gbps := range links {
		cfg := tierConfig(1, gbps, 200, 4000)
		check("tier study", cfg, cfg.Horizon)
	}
	cfg := DefaultConfig()
	cfg.Runs, cfg.LHC.RunPeriod = 12, 30
	check("run", cfg, Run(cfg).End)
	if completions < len(links) {
		t.Fatalf("a flow completed before halfway in %d of %d runs", completions, len(links)+1)
	}
}

// TestTierStudyMallocsPerEvent guards the tier path's allocation
// budget: lsbench's sweep makes fewer than 0.35 heap allocations per
// executed event, set-up included: 0.32 measured, plus a tenth (0.38
// while the replica catalog and stores kept files by name, 2.60 when
// every step of a job allocated a closure).
func TestTierStudyMallocsPerEvent(t *testing.T) {
	links := []float64{0.622, 1.25, 2.5, 10, 30, 40}
	var events uint64
	des.SetDefaultObserver(&des.Observer{Hook: func(obs.Event) { events++ }})
	defer des.SetDefaultObserver(nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RunTierStudy(1, links, 200, 4000)
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	if perEvent >= 0.35 {
		t.Fatalf("%d allocations over %d events: %.3f per event, want < 0.35", after.Mallocs-before.Mallocs, events, perEvent)
	}
}
