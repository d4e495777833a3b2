package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/replication"
	"repro/internal/rng"
	"repro/internal/scheduler"
)

func TestActivityEmitsCount(t *testing.T) {
	e := des.NewEngine(des.WithSeed(3))
	src := e.Stream("a")
	var times []float64
	act := &Activity{
		Name:         "a",
		Interarrival: Poisson(src, 2.0),
		MaxJobs:      50,
		Emit:         func(i int) { times = append(times, e.Now()) },
	}
	act.Start(e)
	e.Run()
	if act.Emitted() != 50 || len(times) != 50 {
		t.Fatalf("emitted = %d", act.Emitted())
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("emission times not monotone")
		}
	}
	// Mean interarrival should be near 0.5.
	mean := times[len(times)-1] / 50
	if mean < 0.2 || mean > 1.2 {
		t.Fatalf("mean gap = %v", mean)
	}
}

func TestActivityUntilLimit(t *testing.T) {
	e := des.NewEngine()
	count := 0
	act := &Activity{
		Name:         "u",
		Interarrival: Fixed(1),
		Until:        10.5,
		Emit:         func(int) { count++ },
	}
	act.Start(e)
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestActivityValidation(t *testing.T) {
	e := des.NewEngine()
	t.Run("missing emit", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		(&Activity{Name: "x", Interarrival: Fixed(1)}).Start(e)
		e.Run()
	})
	t.Run("negative gap", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		e2 := des.NewEngine()
		(&Activity{
			Name:         "neg",
			Interarrival: func() float64 { return -1 },
			MaxJobs:      1,
			Emit:         func(int) {},
		}).Start(e2)
		e2.Run()
	})
}

func TestMixWeights(t *testing.T) {
	src := rng.New(7)
	mix := NewMix(src,
		JobClass{Name: "small", Weight: 3, Ops: func() float64 { return 10 }},
		JobClass{Name: "big", Weight: 1, Ops: func() float64 { return 1000 },
			InputBytes: func() float64 { return 5 }, Cores: 4},
	)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		j := mix.Draw()
		counts[j.Name]++
		if j.Name == "big" {
			if j.Ops != 1000 || j.InputBytes != 5 || j.Cores != 4 {
				t.Fatalf("big job fields: %+v", j)
			}
		}
		if j.ID != i {
			t.Fatal("IDs not sequential")
		}
	}
	frac := float64(counts["small"]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("small fraction = %v, want 0.75", frac)
	}
}

func TestMixValidation(t *testing.T) {
	src := rng.New(1)
	for name, fn := range map[string]func(){
		"empty":      func() { NewMix(src) },
		"zero w":     func() { NewMix(src, JobClass{Name: "x", Weight: 0, Ops: func() float64 { return 1 }}) },
		"missing op": func() { NewMix(src, JobClass{Name: "x", Weight: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTraceGenerateAndReplay(t *testing.T) {
	src := rng.New(11)
	mix := NewMix(src, JobClass{Name: "c", Weight: 1, Ops: func() float64 { return src.Exp(0.001) }})
	recs := GenerateTrace(mix, Fixed(2), 25)
	if len(recs) != 25 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, r := range recs {
		if r.Time != float64(i+1)*2 {
			t.Fatalf("record %d at %v", i, r.Time)
		}
	}
	e := des.NewEngine()
	var submitted []*scheduler.Job
	var at []float64
	Replay(e, recs, func(j *scheduler.Job) {
		submitted = append(submitted, j)
		at = append(at, e.Now())
	})
	e.Run()
	if len(submitted) != 25 {
		t.Fatalf("replayed %d", len(submitted))
	}
	for i := range recs {
		if at[i] != recs[i].Time || submitted[i].Ops != recs[i].Ops {
			t.Fatalf("replay mismatch at %d", i)
		}
	}
}

func TestLHCRunProducesSequentialFiles(t *testing.T) {
	e := des.NewEngine(des.WithSeed(5))
	spec := DefaultLHCSpec()
	var produced []*replication.File
	act := LHCRun(spec, e.Stream("lhc"), func(i int, f *replication.File) {
		produced = append(produced, f)
	})
	act.MaxJobs = 10
	act.Start(e)
	e.Run()
	if len(produced) != 10 {
		t.Fatalf("produced = %d", len(produced))
	}
	if produced[0].Name != "RAW-00000" || produced[9].Name != "RAW-00009" {
		t.Fatalf("names: %s .. %s", produced[0].Name, produced[9].Name)
	}
	for _, f := range produced {
		if f.Bytes != spec.RAWBytes {
			t.Fatalf("size %v", f.Bytes)
		}
	}
}

func TestLHCSpecDerived(t *testing.T) {
	spec := DefaultLHCSpec()
	if spec.RecoOps() != spec.RecoOpsPerByte*spec.RAWBytes {
		t.Fatal("RecoOps")
	}
	if spec.AnaOps() != spec.AnaOpsPerByte*spec.AODBytes {
		t.Fatal("AnaOps")
	}
	if RAW.String() != "RAW" || ESD.String() != "ESD" || AOD.String() != "AOD" {
		t.Fatal("product names")
	}
	if LHCProduct(9).String() == "" {
		t.Fatal("unknown product")
	}
	if LHCFile(ESD, 7) != "ESD-00007" {
		t.Fatalf("LHCFile = %s", LHCFile(ESD, 7))
	}
}

// TestLHCFileMatchesSprintf pins LHCFile to the fmt form it replaced,
// padding, negative indices and unknown products included.
func TestLHCFileMatchesSprintf(t *testing.T) {
	for _, p := range []LHCProduct{RAW, ESD, AOD, LHCProduct(9)} {
		for _, i := range []int{0, 7, 99999, 100000, -42, -1, -9999, -10000, math.MaxInt, math.MinInt} {
			if got, want := LHCFile(p, i), fmt.Sprintf("%s-%05d", p, i); got != want {
				t.Errorf("LHCFile(%v, %d) = %q, want %q", p, i, got, want)
			}
		}
	}
}
