package main

import (
	"os"
	"time"

	"repro/internal/des"
	"repro/internal/distsim"
	"repro/internal/eventq"
	"repro/internal/netsim"
	"repro/internal/pool"
	"repro/internal/rng"
)

// Isolated probes: each one times a layer's public entry point at the
// shape the traced round measured (queue depth, items per window,
// events per frame). A probe's cost times the layer's operation count
// is the "estimated" busy time in the layer table. probeBudget bounds
// each probe so a traced round stays about as long as a timed one.
const probeBudget = 30 * time.Millisecond

// timeLoop repeats batch (which performs n operations) until the
// budget is spent, after one untimed warm-up, and returns ns per op.
func timeLoop(n int, batch func()) float64 {
	batch()
	var ops int
	start := time.Now()
	for time.Since(start) < probeBudget {
		batch()
		ops += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// probeHold runs the classic hold loop (pop the minimum, push it back
// later) on a heap FEL holding depth items, and splits the cost into
// its pop and push halves by timing batches of each.
func probeHold(depth int) (popNs, pushNs float64) {
	if depth < 1 {
		depth = 1
	}
	// Increments are drawn beforehand so that the loop prices the queue,
	// not the random source.
	src := rng.New(11)
	var incr [1024]float64
	for i := range incr {
		incr[i] = src.Exp(1)
	}
	q := eventq.New(eventq.KindHeap)
	var seq uint64
	for i := 0; i < depth; i++ {
		seq++
		q.Push(eventq.Item{Time: incr[i%len(incr)] * float64(1+i/len(incr)), Seq: seq})
	}
	hold := func() {
		for _, d := range incr {
			it, _ := q.Pop()
			seq++
			q.Push(eventq.Item{Time: it.Time + d, Seq: seq})
		}
	}
	// Turn the queue over twice first (up to a point: tier-study's is
	// half a million deep), so the timed loop sees the steady state.
	for ops := 0; ops < min(2*depth, 200_000); ops += len(incr) {
		hold()
	}
	holdNs := timeLoop(len(incr), hold)
	// The split: pop k, then push k, each batch under one clock pair.
	// Below 64 items a batch would drain the queue; call it even.
	popShare := 0.5
	if k := min(depth/8, 256); k >= 8 {
		items := make([]eventq.Item, k)
		var popT, pushT time.Duration
		for start := time.Now(); time.Since(start) < probeBudget; {
			t0 := time.Now()
			for i := range items {
				items[i], _ = q.Pop()
			}
			t1 := time.Now()
			for i := range items {
				seq++
				q.Push(eventq.Item{Time: items[i].Time + incr[i], Seq: seq})
			}
			popT += t1.Sub(t0)
			pushT += time.Since(t1)
		}
		popShare = float64(popT) / float64(popT+pushT)
	}
	return holdNs * popShare, holdNs * (1 - popShare)
}

// probePoolEmpty prices one pool.Run of items no-op bodies: the
// dispatch-and-barrier cost a window pays before any LP does work. The
// caller idles gapNs between Runs, as the federation does while it
// delivers messages, so the pool workers park and each Run pays the
// wake-up; back-to-back Runs would find them still spinning.
func probePoolEmpty(workers, items int, gapNs float64) float64 {
	p := pool.New(workers, func(int, int) {})
	defer p.Close()
	p.Run(items)
	var inRun time.Duration
	var n int
	for start := time.Now(); time.Since(start) < 2*probeBudget; n++ {
		for idle := time.Now(); float64(time.Since(idle).Nanoseconds()) < gapNs; {
		}
		t0 := time.Now()
		p.Run(items)
		inRun += time.Since(t0)
	}
	return float64(inRun.Nanoseconds()) / float64(n)
}

// probeWorkerWindow prices one worker window (execute every LP, flush
// the per-LP send buffers) and the deliver that follows it, at the
// workload's LP count, job count and model work. The harness fixes the
// delay factor at 4, so at 1 job per LP it runs ~8 events per window
// where cluster-sparse runs under 1: the figure is an upper bound there.
func probeWorkerWindow(lps, jobs, work int) (windowNs, deliverNs float64) {
	h := distsim.NewWorkerWindowBench(1, lps, jobs, pholdRemote, work, 0, 1, 0)
	defer h.Close()
	for i := 0; i < 8; i++ { // spread the jobs out, size the buffers
		h.Window()
		h.Deliver()
	}
	var winT, delT time.Duration
	var n int
	for start := time.Now(); time.Since(start) < probeBudget; n++ {
		t0 := time.Now()
		h.Window()
		t1 := time.Now()
		h.Deliver()
		winT += t1.Sub(t0)
		delT += time.Since(t1)
	}
	return float64(winT.Nanoseconds()) / float64(n), float64(delT.Nanoseconds()) / float64(n)
}

// probeMarshal prices the wire image of one window frame carrying
// eventsPerFrame events (at least one), per event.
func probeMarshal(eventsPerFrame int) float64 {
	if eventsPerFrame < 1 {
		eventsPerFrame = 1
	}
	evs := make([]distsim.Event, eventsPerFrame)
	for i := range evs {
		evs[i] = distsim.Event{Time: float64(i) * 0.25, From: i % pholdLPs, To: (i + 3) % pholdLPs, Seq: uint64(i + 1)}
	}
	var seq uint64
	var sink int
	perFrame := timeLoop(1, func() {
		seq++
		sink += len(distsim.MarshalWindowWire(evs, 10, seq, seq-1))
	})
	_ = sink
	return perFrame / float64(eventsPerFrame)
}

// probeJournal prices one fsynced barrier append in dir, the directory
// the workload's own journal was written to.
func probeJournal(dir string) (appendUs float64, err error) {
	sub, err := os.MkdirTemp(dir, "journal-probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(sub)
	jb, err := distsim.NewJournalBench(sub)
	if err != nil {
		return 0, err
	}
	defer jb.Close()
	var n int
	start := time.Now()
	for ; n < 8 || time.Since(start) < probeBudget; n++ {
		if err := jb.Cycle(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n), nil
}

// probeCheckpointWrite prices what clusterCheckpoint.save does to the
// disk for a snapshot of the given size: temp file, write, fsync,
// rename. The encode and the snapshot round trip are not in it.
func probeCheckpointWrite(dir string, size int64) (writeMs float64, err error) {
	data := make([]byte, size)
	target := dir + "/ckpt-probe"
	defer os.Remove(target)
	var n int
	start := time.Now()
	for ; n < 4 || time.Since(start) < probeBudget; n++ {
		tmp, err := os.CreateTemp(dir, ".ckpt-probe-*")
		if err != nil {
			return 0, err
		}
		_, werr := tmp.Write(data)
		if werr == nil {
			werr = tmp.Sync()
		}
		if cerr := tmp.Close(); werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = os.Rename(tmp.Name(), target)
		}
		if werr != nil {
			os.Remove(tmp.Name())
			return 0, werr
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6 / float64(n), nil
}

// probeObsPiggyback prices one telemetry cycle: worker delta encode
// plus coordinator fold.
func probeObsPiggyback() (float64, error) {
	pb := distsim.NewObsPiggybackBench()
	var err error
	ns := timeLoop(64, func() {
		for i := 0; i < 64 && err == nil; i++ {
			_, err = pb.Cycle()
		}
	})
	return ns, err
}

// closureHoldNs is the cost per event of an engine whose only event is
// a closure rescheduling itself one time unit ahead: FEL depth 1, no
// random draw, an empty model.
func closureHoldNs() float64 {
	const holds = 2000
	return timeLoop(holds, func() {
		e := des.NewEngine()
		left := holds
		var step func()
		step = func() {
			if left--; left > 0 {
				e.Schedule(1, step)
			}
		}
		e.Schedule(1, step)
		e.Run()
	})
}

// probeDispatch prices the kernel's own share of one event: Schedule's
// bookkeeping plus the run loop's peek, pop, recycle and call, with the
// FEL's pop and push at depth 1 taken out.
func probeDispatch() float64 {
	popNs, pushNs := probeHold(1)
	return max(0, closureHoldNs()-popNs-pushNs)
}

// probeProcessSwitch prices the process layer's handover: a simulated
// process doing Hold(1) in a loop against the closure doing the same.
// The difference per hold is the goroutine switch the "active object"
// mapping costs.
func probeProcessSwitch() float64 {
	const holds = 2000
	procNs := timeLoop(holds, func() {
		e := des.NewEngine()
		e.Spawn("ping", func(p *des.Process) {
			for i := 0; i < holds; i++ {
				p.Hold(1)
			}
		})
		e.Run()
	})
	return max(0, procNs-closureHoldNs())
}

// probeTransfer prices one flow-model transfer, from the Transfer call
// to its completion callback, with flows of them sharing the study's
// topology (T0 - WAN uplink - four T1 tails) at once: the max-min
// rebalance walks every active flow, so the cost grows with the
// backlog the traced round saw.
func probeTransfer(flows int) float64 {
	if flows < 1 {
		flows = 1
	}
	if flows > 256 {
		flows = 256
	}
	return timeLoop(flows, func() {
		e := des.NewEngine()
		topo := netsim.NewTopology()
		t0, wan := topo.AddNode("T0"), topo.AddNode("WAN")
		topo.Connect(t0, wan, 2.5e9/8, 0.05)
		var t1s []*netsim.Node
		for i := 0; i < 4; i++ {
			n := topo.AddNode("T1")
			topo.Connect(wan, n, 100e9/8, 0.01)
			t1s = append(t1s, n)
		}
		topo.ComputeRoutes()
		net := netsim.NewNetwork(e, topo)
		for i := 0; i < flows; i++ {
			net.Transfer(t0, t1s[i%len(t1s)], 2e9, func() {})
		}
		e.Run()
	})
}
