package parsim

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/eventq"
)

// refFed is the message path this package had before the flat outbox,
// kept as the reference the bit-identity guard compares against: one
// outbox per (source, target) pair, walked source-major then
// target-major at every barrier whether or not a slot holds anything,
// delivering through closures. It runs its LPs sequentially.
type refFed struct {
	lookahead float64
	engines   []*des.Engine
	onMessage []func(Event)
	outbox    [][][]Event // [source][target], in send order
	sent      []uint64
	recv      []uint64
}

func newRefFed(n int, lookahead float64, seed uint64, kind eventq.Kind) *refFed {
	r := &refFed{
		lookahead: lookahead,
		onMessage: make([]func(Event), n),
		sent:      make([]uint64, n),
		recv:      make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		r.engines = append(r.engines, des.NewEngine(des.WithSeed(seed+uint64(i)*0x9e3779b9), des.WithQueue(kind)))
		r.outbox = append(r.outbox, make([][]Event, n))
	}
	return r
}

func (r *refFed) send(src, target int, delay float64, data []byte) {
	r.outbox[src][target] = append(r.outbox[src][target], Event{
		Time: r.engines[src].Now() + delay,
		From: src,
		Data: data,
	})
	r.sent[src]++
}

func (r *refFed) run(horizon float64) {
	for windowEnd := r.lookahead; ; windowEnd += r.lookahead {
		if windowEnd > horizon {
			windowEnd = horizon
		}
		for _, e := range r.engines {
			if e.PeekTime() <= windowEnd {
				e.RunUntil(windowEnd)
			}
		}
		for src := range r.outbox {
			for target := range r.outbox[src] {
				msgs := r.outbox[src][target]
				r.outbox[src][target] = msgs[:0]
				for _, m := range msgs {
					r.recv[target]++
					r.engines[target].At(m.Time, func() { r.onMessage[target](m) })
				}
			}
		}
		if windowEnd >= horizon {
			return
		}
	}
}

// delivery is one received message as the destination saw it.
type delivery struct {
	time    float64
	from    int
	sendIdx uint64 // the sender's running send count, carried as payload
}

// guardLP is what the guard's model needs of an LP in either
// implementation.
type guardLP struct {
	e    *des.Engine
	send func(target int, delay float64, data []byte)
}

// installGuardModel drives a seeded random send schedule. Every LP
// ticks at integer times and all delays are whole lookaheads, so
// arrivals pile up on the same instants; half of all sends go to LP 0,
// so most pile-ups share one destination. A receiver logs the message
// and draws from its own stream to decide whether to send again, which
// makes every later draw depend on the order same-instant messages
// arrived in. It returns the per-LP OnMessage handlers.
func installGuardModel(lps []guardLP, log [][]delivery) []func(Event) {
	handlers := make([]func(Event), len(lps))
	for i, lp := range lps {
		src := lp.e.Stream("guard")
		var sendIdx uint64
		emit := func() {
			for k := src.Intn(4); k > 0; k-- {
				target := 0
				if i == 0 || src.Bernoulli(0.5) {
					target = src.Intn(len(lps) - 1)
					if target >= i {
						target++
					}
				}
				sendIdx++
				lp.send(target, float64(1+src.Intn(3)), binary.AppendUvarint(nil, sendIdx))
			}
		}
		var tick func()
		tick = func() {
			emit()
			lp.e.Schedule(1, tick)
		}
		lp.e.Schedule(1, tick)
		handlers[i] = func(m Event) {
			idx, _ := binary.Uvarint(m.Data)
			log[i] = append(log[i], delivery{m.Time, m.From, idx})
			if src.Bernoulli(0.25) {
				emit()
			}
		}
	}
	return handlers
}

// TestFlatOutboxMatchesMatrixReference is the bit-identity guard of the
// message path: for every FEL kind, worker count and seed, each
// destination sees the deliveries of the old outbox matrix in the same
// order, and engine statistics and message counters are equal.
func TestFlatOutboxMatchesMatrixReference(t *testing.T) {
	underPoolSwitches(t, testFlatOutboxMatchesMatrixReference)
}

func testFlatOutboxMatchesMatrixReference(t *testing.T) {
	const (
		n       = 6
		horizon = 40
	)
	for _, seed := range []uint64{1, 2, 77} {
		for _, kind := range eventq.Kinds() {
			ref := newRefFed(n, 1, seed, kind)
			refLog := make([][]delivery, n)
			lps := make([]guardLP, n)
			for i := range lps {
				lps[i] = guardLP{ref.engines[i], func(target int, delay float64, data []byte) {
					ref.send(i, target, delay, data)
				}}
			}
			copy(ref.onMessage, installGuardModel(lps, refLog))
			ref.run(horizon)
			requireCollisions(t, refLog[0])

			for _, workers := range []int{1, 2, 4} {
				f := NewFederationWithQueue(n, 1, workers, seed, kind)
				log := make([][]delivery, n)
				for i := range lps {
					lps[i] = guardLP{f.LP(i).E, f.LP(i).Send}
				}
				for i, h := range installGuardModel(lps, log) {
					f.LP(i).OnMessage = h
				}
				f.Run(horizon)

				name := fmt.Sprintf("seed=%d/%s/workers=%d", seed, kind, workers)
				for i := 0; i < n; i++ {
					if !reflect.DeepEqual(log[i], refLog[i]) {
						t.Fatalf("%s: LP %d delivery order diverged from the reference\n got %v\nwant %v", name, i, log[i], refLog[i])
					}
					if g, w := f.LP(i).E.Stats(), ref.engines[i].Stats(); g != w {
						t.Fatalf("%s: LP %d stats %+v, want %+v", name, i, g, w)
					}
					if g, w := f.LP(i).Sent(), ref.sent[i]; g != w {
						t.Fatalf("%s: LP %d sent %d, want %d", name, i, g, w)
					}
					if g, w := f.LP(i).Received(), ref.recv[i]; g != w {
						t.Fatalf("%s: LP %d received %d, want %d", name, i, g, w)
					}
				}
			}
		}
	}
}

// requireCollisions fails unless the hot destination's log holds many
// same-instant arrivals, both from different sources and from one
// source: without them delivery order is never put to the test.
func requireCollisions(t *testing.T, log []delivery) {
	t.Helper()
	var crossSource, sameSource int
	for i := 1; i < len(log); i++ {
		if log[i].time != log[i-1].time {
			continue
		}
		if log[i].from == log[i-1].from {
			sameSource++
		} else {
			crossSource++
		}
	}
	if crossSource < 20 || sameSource < 5 {
		t.Fatalf("schedule is vacuous: %d cross-source and %d same-source collisions in %d deliveries",
			crossSource, sameSource, len(log))
	}
}

// TestPHOLDPinned pins the lsbench fed-smallwin shape to the per-LP
// event counts and idle skips the gob-and-matrix implementation
// produced (recorded at commit b7f58ba), for one and two workers.
func TestPHOLDPinned(t *testing.T) {
	underPoolSwitches(t, testPHOLDPinned)
}

func testPHOLDPinned(t *testing.T) {
	pins := []struct {
		seed      uint64
		idleSkips uint64
		perLP     []uint64
	}{
		{1, 752805, []uint64{
			3443, 3525, 3375, 3344, 3849, 3848, 3629, 3454, 3638, 3428, 3734, 3798, 3532, 3659, 3594, 3512,
			3552, 3808, 3566, 3820, 3854, 3772, 3538, 3667, 3832, 3804, 3507, 3693, 3642, 3683, 3765, 3677,
			3833, 3547, 3543, 3860, 3660, 3866, 3497, 3639, 3599, 3687, 3580, 3484, 3437, 3711, 3607, 3856,
			3713, 3807, 3522, 3606, 3628, 3531, 3449, 3369, 3459, 3717, 3509, 3745, 3770, 3520, 3718, 3727}},
		{2, 751774, []uint64{
			3566, 3680, 3920, 3836, 4108, 3496, 3378, 3407, 3464, 3734, 3579, 3653, 3690, 3566, 3580, 3909,
			3983, 3451, 3516, 3519, 3736, 3653, 3690, 3651, 3560, 4162, 3522, 3850, 3624, 3752, 3823, 3724,
			3980, 3250, 3948, 3703, 3493, 3789, 3788, 3668, 3929, 3644, 3530, 3656, 3692, 3490, 3478, 3565,
			3602, 3737, 3634, 3563, 3284, 3630, 3752, 3396, 3616, 3569, 3522, 3717, 3474, 3741, 3540, 3612}},
	}
	for _, pin := range pins {
		for _, workers := range []int{1, 2} {
			ph := NewPHOLD(64, workers, 1, 1, 0.2, 0, pin.seed)
			ph.Run(15000)
			if got := ph.PerLPEvents(); !equalU64(got, pin.perLP) {
				t.Errorf("seed %d workers %d: per-LP events %v, want %v", pin.seed, workers, got, pin.perLP)
			}
			if got := ph.Fed.IdleSkips(); got != pin.idleSkips {
				t.Errorf("seed %d workers %d: idle skips %d, want %d", pin.seed, workers, got, pin.idleSkips)
			}
			if got := ph.Fed.Snapshot().IdleSkips; got != pin.idleSkips {
				t.Errorf("seed %d workers %d: Snapshot idle skips %d, want %d", pin.seed, workers, got, pin.idleSkips)
			}
		}
	}
}
