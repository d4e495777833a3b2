package resources

import (
	"math"
	"testing"

	"repro/internal/des"
)

func TestSpaceSharedFCFS(t *testing.T) {
	e := des.NewEngine()
	cpu := NewCPU(e, "farm", 2, 100, SpaceShared)
	var ends []float64
	for i := 0; i < 4; i++ {
		cpu.Execute(1000, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	// 2 cores, 10 s each: finish at 10,10,20,20.
	want := []float64{10, 10, 20, 20}
	if len(ends) != 4 {
		t.Fatalf("ends = %v", ends)
	}
	for i := range want {
		if math.Abs(ends[i]-want[i]) > 1e-9 {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if cpu.Completed() != 4 {
		t.Fatalf("completed = %d", cpu.Completed())
	}
}

func TestTimeSharedProcessorSharing(t *testing.T) {
	e := des.NewEngine()
	cpu := NewCPU(e, "pc", 1, 100, TimeShared)
	var ends []float64
	for i := 0; i < 2; i++ {
		cpu.Execute(1000, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	// Both share the core: each runs at 50 ops/s → both end at 20.
	for _, end := range ends {
		if math.Abs(end-20) > 1e-9 {
			t.Fatalf("ends = %v, want both 20", ends)
		}
	}
}

func TestTimeSharedCappedAtOneCore(t *testing.T) {
	e := des.NewEngine()
	cpu := NewCPU(e, "smp", 4, 100, TimeShared)
	var end float64
	cpu.Execute(1000, func() { end = e.Now() })
	e.Run()
	// A single task cannot use more than one core: 10 s, not 2.5 s.
	if math.Abs(end-10) > 1e-9 {
		t.Fatalf("end = %v, want 10", end)
	}
}

func TestTimeSharedShorterJobLeavesFirst(t *testing.T) {
	e := des.NewEngine()
	cpu := NewCPU(e, "pc", 1, 100, TimeShared)
	var tShort, tLong float64
	cpu.Execute(3000, func() { tLong = e.Now() })
	cpu.Execute(1000, func() { tShort = e.Now() })
	e.Run()
	// Shared at 50 each until short finishes at t=20 (short moved
	// 1000). Long then has 2000 left at 100 → ends at 40.
	if math.Abs(tShort-20) > 1e-9 {
		t.Fatalf("tShort = %v, want 20", tShort)
	}
	if math.Abs(tLong-40) > 1e-9 {
		t.Fatalf("tLong = %v, want 40", tLong)
	}
}

func TestTimeSharedVersusSpaceSharedMakespan(t *testing.T) {
	// GridSim's classic distinction: same jobs, same machine, but PS
	// delays everyone while FCFS finishes early jobs sooner; total
	// makespan is identical when all jobs arrive together.
	run := func(mode SharingMode) (first, last float64) {
		e := des.NewEngine()
		cpu := NewCPU(e, "m", 1, 100, mode)
		first = math.Inf(1)
		for i := 0; i < 5; i++ {
			cpu.Execute(1000, func() {
				if e.Now() < first {
					first = e.Now()
				}
				last = e.Now()
			})
		}
		e.Run()
		return
	}
	fFCFS, lFCFS := run(SpaceShared)
	fPS, lPS := run(TimeShared)
	if math.Abs(lFCFS-50) > 1e-9 || math.Abs(lPS-50) > 1e-9 {
		t.Fatalf("makespans: fcfs=%v ps=%v, want 50", lFCFS, lPS)
	}
	if fFCFS >= fPS {
		t.Fatalf("FCFS first completion %v should precede PS %v", fFCFS, fPS)
	}
}

func TestCPUBlockingRun(t *testing.T) {
	e := des.NewEngine()
	cpu := NewCPU(e, "m", 1, 50, SpaceShared)
	var at float64
	e.Spawn("job", func(p *des.Process) {
		cpu.Run(p, 500)
		at = p.Now()
	})
	e.Run()
	if math.Abs(at-10) > 1e-9 {
		t.Fatalf("at = %v", at)
	}
}

func TestCPUUtilization(t *testing.T) {
	e := des.NewEngine()
	ts := NewCPU(e, "ts", 2, 100, TimeShared)
	ts.Execute(1000, nil) // one core busy 10 s
	e.Run()
	e2 := des.NewEngine()
	ss := NewCPU(e2, "ss", 2, 100, SpaceShared)
	ss.Execute(1000, nil)
	e2.Run()
	if u := ts.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("time-shared utilization = %v, want 0.5", u)
	}
	if u := ss.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("space-shared utilization = %v, want 0.5", u)
	}
}

func TestCPULoad(t *testing.T) {
	e := des.NewEngine()
	cpu := NewCPU(e, "m", 1, 100, SpaceShared)
	for i := 0; i < 3; i++ {
		cpu.Execute(1000, nil)
	}
	e.Schedule(5, func() {
		if cpu.Load() != 3 {
			t.Errorf("load at t=5: %d, want 3", cpu.Load())
		}
	})
	e.Run()
	if cpu.Load() != 0 {
		t.Fatalf("final load = %d", cpu.Load())
	}
}

// busyCPU is a one-core CPU running a task.
func busyCPU(e *des.Engine, mode SharingMode) *CPU {
	c := NewCPU(e, "x", 1, 1, mode)
	c.Execute(1, nil)
	return c
}

func TestCPUValidation(t *testing.T) {
	e := des.NewEngine()
	for name, fn := range map[string]func(){
		"zero cores": func() { NewCPU(e, "x", 0, 1, SpaceShared) },
		"zero speed": func() { NewCPU(e, "x", 1, 0, SpaceShared) },
		"neg ops":    func() { NewCPU(e, "x", 1, 1, TimeShared).Execute(-1, nil) },
		// Beside a running task a non-finite one never holds the
		// time-shared completion timer, and a space-shared task starts
		// in a later event: only the call's own check refuses it.
		"NaN ops":              func() { busyCPU(e, TimeShared).Execute(math.NaN(), nil) },
		"+Inf ops":             func() { busyCPU(e, TimeShared).RunOp(math.Inf(1), des.Op{}, nil) },
		"NaN ops space-shared": func() { busyCPU(e, SpaceShared).RunOp(math.NaN(), des.Op{}, nil) },
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
	if SpaceShared.String() != "space-shared" || TimeShared.String() != "time-shared" {
		t.Fatal("mode strings")
	}
	if SharingMode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

func TestDiskReadWriteTiming(t *testing.T) {
	e := des.NewEngine()
	d := NewDisk(e, "d", 1e9, 1000, 0.5, 1)
	var tr, tw float64
	wrote := e.RegisterOp("wrote", func([]byte) { tw = e.Now() })
	read := e.RegisterOp("read", func([]byte) {
		tr = e.Now()
		d.WriteOp(500, wrote, nil) // 0.5 + 0.5 = 1.0
	})
	d.ReadOp(1000, read, nil) // 0.5 + 1 = 1.5
	e.Run()
	if math.Abs(tr-1.5) > 1e-9 || math.Abs(tw-2.5) > 1e-9 {
		t.Fatalf("tr=%v tw=%v", tr, tw)
	}
	if d.Reads() != 1 || d.Writes() != 1 || d.BytesRead() != 1000 || d.BytesWritten() != 500 {
		t.Fatal("disk counters wrong")
	}
}

func TestDiskChannelContention(t *testing.T) {
	e := des.NewEngine()
	d := NewDisk(e, "d", 1e9, 1000, 0, 2)
	var ends []float64
	read := e.RegisterOp("read", func([]byte) { ends = append(ends, e.Now()) })
	for i := 0; i < 4; i++ {
		d.ReadOp(1000, read, nil)
	}
	e.Run()
	want := []float64{1, 1, 2, 2}
	for i := range want {
		if math.Abs(ends[i]-want[i]) > 1e-9 {
			t.Fatalf("ends = %v", ends)
		}
	}
}

func TestDiskAllocation(t *testing.T) {
	e := des.NewEngine()
	d := NewDisk(e, "d", 1000, 1, 0, 1)
	if !d.Allocate(600) {
		t.Fatal("first allocate failed")
	}
	if d.Allocate(500) {
		t.Fatal("over-allocation succeeded")
	}
	if d.Free() != 400 || d.Used() != 600 {
		t.Fatalf("free/used = %v/%v", d.Free(), d.Used())
	}
	d.Release(100)
	if d.Used() != 500 {
		t.Fatalf("used = %v", d.Used())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	d.Release(1e9)
}

// TestDiskRejectsNaN: a NaN size fails every comparison, so a capacity
// check alone would let Allocate and Release turn Used into NaN and
// admit whatever comes next.
func TestDiskRejectsNaN(t *testing.T) {
	d := NewDisk(des.NewEngine(), "d", 100, 1, 0, 1)
	for name, fn := range map[string]func(){
		"Allocate": func() { d.Allocate(math.NaN()) },
		"Release":  func() { d.Release(math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NaN) did not panic; used %v", name, d.Used())
				}
			}()
			fn()
		}()
	}
	if d.Used() != 0 || !d.Allocate(60) || d.Allocate(60) {
		t.Fatalf("after the NaN calls: used %v, two 60-byte allocations on 100 bytes", d.Used())
	}
}

func TestMassStorageMountLatency(t *testing.T) {
	e := des.NewEngine()
	ms := NewMassStorage(e, "tape", 1e15, 1000, 30, 1)
	var tr float64
	ms.ReadOp(1000, e.RegisterOp("read", func([]byte) { tr = e.Now() }), nil)
	e.Run()
	if math.Abs(tr-31) > 1e-9 {
		t.Fatalf("tape read = %v, want 31", tr)
	}
	if ms.Reads() != 1 {
		t.Fatal("reads counter")
	}
}

func TestMassStorageDrivesSerialize(t *testing.T) {
	e := des.NewEngine()
	ms := NewMassStorage(e, "tape", 1e15, 1000, 10, 1)
	var ends []float64
	wrote := e.RegisterOp("wrote", func([]byte) { ends = append(ends, e.Now()) })
	for i := 0; i < 2; i++ {
		ms.WriteOp(1000, wrote, nil)
	}
	e.Run()
	if math.Abs(ends[0]-11) > 1e-9 || math.Abs(ends[1]-22) > 1e-9 {
		t.Fatalf("ends = %v", ends)
	}
}

func TestDatabaseQuery(t *testing.T) {
	e := des.NewEngine()
	db := NewDatabase(e, "db", 1e12, 1e6, 0.1, 2)
	var at float64
	db.QueryOp(1e6, e.RegisterOp("answered", func([]byte) { at = e.Now() }), nil) // 0.1 overhead + 1 s read
	e.Run()
	if math.Abs(at-1.1) > 1e-9 {
		t.Fatalf("query time = %v, want 1.1", at)
	}
	if db.Queries() != 1 {
		t.Fatalf("queries = %d", db.Queries())
	}
	if db.Disk() == nil || db.Name() != "db" {
		t.Fatal("accessors")
	}
}

func TestDatabaseWorkerContention(t *testing.T) {
	e := des.NewEngine()
	db := NewDatabase(e, "db", 1e12, 1e6, 1.0, 1)
	var ends []float64
	answered := e.RegisterOp("answered", func([]byte) { ends = append(ends, e.Now()) })
	for i := 0; i < 2; i++ {
		db.QueryOp(0, answered, nil)
	}
	e.Run()
	// Single worker, 1 s overhead each: 1, 2.
	if math.Abs(ends[0]-1) > 1e-9 || math.Abs(ends[1]-2) > 1e-9 {
		t.Fatalf("ends = %v", ends)
	}
}

// busyDisk is a one-channel disk with a read on its channel.
func busyDisk(e *des.Engine) *Disk {
	d := NewDisk(e, "x", 1, 1, 0, 1)
	d.ReadOp(1, des.Op{}, nil)
	return d
}

func TestStorageValidation(t *testing.T) {
	e := des.NewEngine()
	for name, fn := range map[string]func(){
		"disk bad bps":   func() { NewDisk(e, "x", 1, 0, 0, 1) },
		"disk bad chans": func() { NewDisk(e, "x", 1, 1, 0, 0) },
		"db bad workers": func() { NewDatabase(e, "x", 1, 1, 0, 0) },
		"alloc negative": func() { NewDisk(e, "x", 10, 1, 0, 1).Allocate(-1) },
		// Behind a busy channel, or a worker's overhead, a non-finite
		// size would reach a delay only at its grant, in a later event.
		"read NaN":   func() { busyDisk(e).ReadOp(math.NaN(), des.Op{}, nil) },
		"write +Inf": func() { busyDisk(e).WriteOp(math.Inf(1), des.Op{}, nil) },
		"query NaN":  func() { NewDatabase(e, "x", 1, 1, 0.5, 1).QueryOp(math.NaN(), des.Op{}, nil) },
		"query +Inf": func() { NewDatabase(e, "x", 1, 1, 0.5, 1).QueryOp(math.Inf(1), des.Op{}, nil) },
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
