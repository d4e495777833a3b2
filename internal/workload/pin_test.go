package workload

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"repro/internal/des"
)

// TestActivityPinned runs three activities that tie with each other and
// with the events their emissions schedule: every emission and every
// job it schedules happens at the instant, in the order and at the
// engine counts the one-process-per-activity loop it replaced gave. It
// replaces TestActivityMatchesProcessReference, which ran that loop
// beside the event chain; the hashes were recorded at commit 74e1d7d,
// where both forms produced them.
func TestActivityPinned(t *testing.T) {
	want := map[uint64]string{
		1: "191 lines df19d2bf44b0ec03",
		2: "191 lines d7856a3e8f580e78",
		3: "191 lines 782343926788f870",
	}
	for seed := uint64(1); seed <= 3; seed++ {
		e := des.NewEngine(des.WithSeed(seed))
		src := e.Stream("gaps")
		var log []string
		acts := []*Activity{
			{Name: "capped", Interarrival: Poisson(src, 0.5), MaxJobs: 40},
			{Name: "until", Interarrival: Fixed(1), Until: 30},
			{Name: "both", Interarrival: func() float64 { return float64(src.Intn(3)) }, MaxJobs: 25, Until: 45},
		}
		for _, a := range acts {
			a.Emit = func(i int) {
				log = append(log, fmt.Sprintf("%s %d %x", a.Name, i, math.Float64bits(e.Now())))
				e.Schedule(float64(src.Intn(2)), func() {
					log = append(log, fmt.Sprintf("job %s %d %x", a.Name, i, math.Float64bits(e.Now())))
				})
			}
			a.Start(e)
		}
		e.Run()
		s := e.Stats()
		log = append(log, fmt.Sprintf("executed %d scheduled %d max queue %d", s.Executed, s.Scheduled, s.MaxQueue))
		h := fnv.New64a()
		for _, l := range log {
			io.WriteString(h, l+"\n")
		}
		if got := fmt.Sprintf("%d lines %016x", len(log), h.Sum64()); got != want[seed] {
			t.Errorf("seed %d: log %s, want %s", seed, got, want[seed])
		}
	}
}
