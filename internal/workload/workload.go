// Package workload implements the user-application layer of the
// taxonomy: "Users" / "Activity" objects that generate data-processing
// jobs from stochastic scenarios (MONARC's vocabulary), reusable job
// mixes, synthetic trace generation, and trace replay for trace-driven
// simulation.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/scheduler"
)

// Activity is an open arrival process: it emits jobs with stochastic
// interarrival times until a count or time limit is reached. It is
// the framework's "Activity object" in the MONARC sense, run as an
// event chain: each arrival is one event that emits and schedules the
// next.
type Activity struct {
	Name string
	// Interarrival draws the next gap (seconds).
	Interarrival func() float64
	// MaxJobs stops the activity after this many emissions (0 = no cap).
	MaxJobs int
	// Until stops the activity at this simulation time (0 = no limit).
	Until float64
	// Emit receives each generated job index.
	Emit func(i int)

	emitted int
	e       *des.Engine
	k       *kind
	self    []byte // the activity's op argument
}

// kind holds the ops every activity on one engine steps with, and the
// table that names the activities in their events.
type kind struct {
	acts          des.Table[*Activity]
	next, arrival des.Op
}

func newKind(e *des.Engine) *kind {
	k := &kind{}
	k.next = e.RegisterOp("activity:next", func(self []byte) { (*k.acts.At(self)).next() })
	k.arrival = e.RegisterOp("activity:arrival", func(self []byte) { (*k.acts.At(self)).arrival() })
	return k
}

// Start launches the activity on the engine at the current time.
func (a *Activity) Start(e *des.Engine) {
	if a.Interarrival == nil || a.Emit == nil {
		panic(fmt.Sprintf("workload: activity %q missing Interarrival or Emit", a.Name))
	}
	a.e, a.k = e, des.PerEngine(e, newKind)
	var p **Activity
	p, a.self = a.k.acts.Get()
	*p = a
	e.ScheduleOp(0, a.k.next, a.self)
}

// next draws the gap to the next arrival and schedules it, unless the
// job cap is reached.
func (a *Activity) next() {
	if a.MaxJobs > 0 && a.emitted >= a.MaxJobs {
		return
	}
	gap := a.Interarrival()
	if gap < 0 {
		panic(fmt.Sprintf("workload: activity %q drew negative gap %v", a.Name, gap))
	}
	a.e.ScheduleOp(gap, a.k.arrival, a.self)
}

// arrival emits one job, unless past Until, and schedules the next.
func (a *Activity) arrival() {
	if a.Until > 0 && a.e.Now() > a.Until {
		return
	}
	a.Emit(a.emitted)
	a.emitted++
	a.next()
}

// Emitted returns the number of jobs generated so far.
func (a *Activity) Emitted() int { return a.emitted }

// Poisson returns an exponential-interarrival function at the given
// rate (jobs per second), drawing from src.
func Poisson(src *rng.Source, rate float64) func() float64 {
	return func() float64 { return src.Exp(rate) }
}

// Fixed returns a constant-interarrival function.
func Fixed(gap float64) func() float64 {
	return func() float64 { return gap }
}

// JobClass is one component of a job mix.
type JobClass struct {
	Name   string
	Weight float64
	// Ops draws the compute demand.
	Ops func() float64
	// InputBytes / OutputBytes draw data sizes (nil = 0).
	InputBytes  func() float64
	OutputBytes func() float64
	Cores       int
}

// Mix samples jobs from weighted classes.
type Mix struct {
	classes []JobClass
	cdf     []float64
	src     *rng.Source
	nextID  int
}

// NewMix builds a mix; weights need not sum to 1.
func NewMix(src *rng.Source, classes ...JobClass) *Mix {
	if len(classes) == 0 {
		panic("workload: NewMix with no classes")
	}
	cdf := make([]float64, len(classes))
	total := 0.0
	for i, c := range classes {
		if c.Weight <= 0 || c.Ops == nil {
			panic(fmt.Sprintf("workload: bad class %q", c.Name))
		}
		total += c.Weight
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Mix{classes: classes, cdf: cdf, src: src}
}

// Draw samples the next job.
func (m *Mix) Draw() *scheduler.Job {
	u := m.src.Float64()
	idx := sort.SearchFloat64s(m.cdf, u)
	c := m.classes[idx]
	j := &scheduler.Job{
		ID:    m.nextID,
		Name:  c.Name,
		Ops:   c.Ops(),
		Cores: c.Cores,
	}
	m.nextID++
	if c.InputBytes != nil {
		j.InputBytes = c.InputBytes()
	}
	if c.OutputBytes != nil {
		j.OutputBytes = c.OutputBytes()
	}
	return j
}

// TraceRecord is one line of a synthetic or captured workload trace.
type TraceRecord struct {
	Time        float64
	JobID       int
	Class       string
	Ops         float64
	InputBytes  float64
	OutputBytes float64
	Cores       int
}

// GenerateTrace materializes n arrivals from the mix and interarrival
// process into a deterministic, replayable trace.
func GenerateTrace(mix *Mix, interarrival func() float64, n int) []TraceRecord {
	recs := make([]TraceRecord, 0, n)
	now := 0.0
	for i := 0; i < n; i++ {
		now += interarrival()
		j := mix.Draw()
		recs = append(recs, TraceRecord{
			Time:        now,
			JobID:       j.ID,
			Class:       j.Name,
			Ops:         j.Ops,
			InputBytes:  j.InputBytes,
			OutputBytes: j.OutputBytes,
			Cores:       j.Cores,
		})
	}
	return recs
}

// Replay schedules submit for every record at its timestamp — the
// trace-driven DES mode of the taxonomy ("reading in a set of events
// that are collected independently from another environment").
func Replay(e *des.Engine, recs []TraceRecord, submit func(*scheduler.Job)) {
	for _, r := range recs {
		r := r
		e.At(r.Time, func() {
			submit(&scheduler.Job{
				ID:          r.JobID,
				Name:        r.Class,
				Ops:         r.Ops,
				InputBytes:  r.InputBytes,
				OutputBytes: r.OutputBytes,
				Cores:       r.Cores,
			})
		})
	}
}
