package des

import (
	"math"
	"testing"
)

func TestResourceMutex(t *testing.T) {
	e := NewEngine()
	res := e.NewResource("cpu", 1)
	var spans [][2]float64
	for i := 0; i < 3; i++ {
		e.Spawn("job", func(p *Process) {
			res.Acquire(p, 1)
			start := p.Now()
			p.Hold(10)
			res.Release(1)
			spans = append(spans, [2]float64{start, p.Now()})
		})
	}
	e.Run()
	if len(spans) != 3 {
		t.Fatalf("spans = %v", spans)
	}
	// Strictly serialized: 0-10, 10-20, 20-30.
	for i, want := range []float64{0, 10, 20} {
		if spans[i][0] != want || spans[i][1] != want+10 {
			t.Fatalf("span %d = %v", i, spans[i])
		}
	}
	if res.InUse() != 0 || res.QueueLen() != 0 {
		t.Fatal("resource not drained")
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	e := NewEngine()
	res := e.NewResource("cpu", 2)
	var ends []float64
	for i := 0; i < 4; i++ {
		e.Spawn("job", func(p *Process) {
			res.Acquire(p, 1)
			p.Hold(10)
			res.Release(1)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	// Two at a time: finishes at 10,10,20,20.
	want := []float64{10, 10, 20, 20}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v", ends)
		}
	}
}

func TestResourceFIFONoOvertaking(t *testing.T) {
	e := NewEngine()
	res := e.NewResource("r", 2)
	var order []string
	// First job takes both units; a big request then a small request
	// queue up. The small one must NOT overtake the big one.
	e.Spawn("first", func(p *Process) {
		res.Acquire(p, 2)
		p.Hold(10)
		res.Release(2)
	})
	e.SpawnAt("big", 1, func(p *Process) {
		res.Acquire(p, 2)
		order = append(order, "big")
		p.Hold(5)
		res.Release(2)
	})
	e.SpawnAt("small", 2, func(p *Process) {
		res.Acquire(p, 1)
		order = append(order, "small")
		res.Release(1)
	})
	e.Run()
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("order = %v", order)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	res := e.NewResource("r", 2)
	e.Spawn("p", func(p *Process) {
		res.Acquire(p, 1)
		p.Hold(10) // 1 of 2 busy for 10 of 20 → 25%
		res.Release(1)
		p.Hold(10)
	})
	e.Run()
	if u := res.Utilization(); math.Abs(u-0.25) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

func TestResourcePanics(t *testing.T) {
	e := NewEngine()
	res := e.NewResource("r", 2)
	t.Run("acquire too much", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		e2 := NewEngine()
		r2 := e2.NewResource("x", 1)
		e2.Spawn("p", func(p *Process) { r2.Acquire(p, 2) })
		e2.Run()
	})
	t.Run("release unheld", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		res.Release(1)
	})
	t.Run("zero capacity", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		e.NewResource("bad", 0)
	})
}

func TestWaitGroupWakesEveryWaiter(t *testing.T) {
	e := NewEngine()
	wg := e.NewWaitGroup()
	wg.Add(1)
	var woken []float64
	for i := 0; i < 5; i++ {
		e.Spawn("waiter", func(p *Process) {
			wg.Wait(p)
			woken = append(woken, p.Now())
		})
	}
	e.Schedule(3, wg.Done)
	e.Run()
	if len(woken) != 5 || woken[0] != 3 || woken[4] != 3 {
		t.Fatalf("woken at %v, want five waiters at 3", woken)
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	wg := e.NewWaitGroup()
	var doneAt float64 = -1
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		e.Spawn("worker", func(p *Process) {
			p.Hold(float64(i * 10))
			wg.Done()
		})
	}
	e.Spawn("waiter", func(p *Process) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != 30 {
		t.Fatalf("doneAt = %v", doneAt)
	}
	if wg.Count() != 0 {
		t.Fatalf("count = %d", wg.Count())
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	e := NewEngine()
	wg := e.NewWaitGroup()
	passed := false
	e.Spawn("w", func(p *Process) {
		wg.Wait(p) // must not block
		passed = true
	})
	e.Run()
	if !passed {
		t.Fatal("Wait on zero wait group blocked")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	e := NewEngine()
	wg := e.NewWaitGroup()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	wg.Add(-1)
}
