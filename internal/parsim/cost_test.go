package parsim

import (
	"runtime"
	"testing"
)

// costFederation builds a federation whose every LP ticks once per
// window and sends perTick messages with an 8-byte payload each tick,
// run for a few windows so outboxes, FELs and event free lists have
// reached their steady size. advance runs it for further windows.
func costFederation(lps, workers, perTick int) (f *Federation, advance func(windows int)) {
	f = NewFederation(lps, 1, workers, 3)
	payload := []byte("8 bytes.")
	for i := 0; i < lps; i++ {
		lp := f.LP(i)
		lp.OnMessage = func(Event) {}
		var tick func()
		tick = func() {
			for k := 0; k < perTick; k++ {
				lp.Send((lp.ID+1+k)%lps, 1, payload)
			}
			lp.E.Schedule(1, tick)
		}
		lp.E.Schedule(1, tick)
	}
	advance = func(windows int) { f.Run(f.Clock() + float64(windows)) }
	advance(8)
	return f, advance
}

// windowAllocs returns the allocations of one more window: the cost of
// a 26-window Run less that of a 16-window Run, so whatever Run itself
// allocates (the pool, its goroutines) cancels out. Both Runs are long
// enough to go through the pool's trial windows, inline and dispatched:
// the goroutines start at the first dispatched window, not at the first.
func windowAllocs(advance func(windows int)) float64 {
	short := testing.AllocsPerRun(10, func() { advance(16) })
	long := testing.AllocsPerRun(10, func() { advance(26) })
	return (long - short) / 10
}

// TestLocalMessagesAllocateNothing pins the per-message cost of the
// whole path (Send, outbox, inbox, delivery record, op event,
// OnMessage): a pending delivery is a record of its LP's table and a
// local payload is the sender's, so a warm window delivering 128
// messages with an 8-byte payload each allocates nothing.
func TestLocalMessagesAllocateNothing(t *testing.T) {
	const lps, perTick = 8, 16
	for _, workers := range []int{1, 2} {
		f, advance := costFederation(lps, workers, perTick)
		before := f.LP(0).Received()
		if got := windowAllocs(advance); got > 0 {
			t.Errorf("workers=%d: %.2f allocations per window delivering %d messages", workers, got, lps*perTick)
		}
		if f.LP(0).Received() == before {
			t.Fatal("no messages delivered; test is vacuous")
		}
	}
}

// TestEmptyWindowAllocatesNothing pins that a window in which every LP
// runs but nothing is sent costs no allocation.
func TestEmptyWindowAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2} {
		_, advance := costFederation(8, workers, 0)
		if got := windowAllocs(advance); got > 0 {
			t.Errorf("workers=%d: %.1f allocations per message-free window", workers, got)
		}
	}
}

// TestLargeFederationHeap pins construction at O(LPs): 20 000 LPs build
// and run two windows in about 12 MB of heap, budgeted at 100 MB. A
// per-target outbox matrix needs 20 000² slice headers, 9.6 GB, before
// the first event.
func TestLargeFederationHeap(t *testing.T) {
	const lps = 20000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := NewFederation(lps, 1, 1, 9)
	onMessage := func(Event) {}
	for i := 0; i < lps; i++ {
		f.LP(i).OnMessage = onMessage
	}
	f.LP(0).E.Schedule(0.5, func() { f.LP(0).Send(lps-1, 1, nil) })
	f.Run(2)
	runtime.ReadMemStats(&after)
	if f.LP(lps-1).Received() != 1 {
		t.Fatal("message not delivered")
	}
	const budget = 100 << 20
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > budget {
		t.Fatalf("heap grew by %d MB for %d LPs (budget %d MB)", grown>>20, lps, budget>>20)
	}
}
