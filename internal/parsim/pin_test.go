package parsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/eventq"
)

// delivery is one received message as the destination saw it.
type delivery struct {
	time    float64
	from    int
	sendIdx uint64 // the sender's running send count, carried as payload
}

// installGuardModel drives a seeded random send schedule on f's LPs.
// Every LP ticks at integer times and all delays are whole lookaheads,
// so arrivals pile up on the same instants; half of all sends go to LP
// 0, so most pile-ups share one destination. A receiver logs the
// message and draws from its own stream to decide whether to send
// again, which makes every later draw depend on the order same-instant
// messages arrived in.
func installGuardModel(f *Federation, log [][]delivery) {
	for i := range log {
		lp := f.LP(i)
		src := lp.E.Stream("guard")
		var sendIdx uint64
		emit := func() {
			for k := src.Intn(4); k > 0; k-- {
				target := 0
				if i == 0 || src.Bernoulli(0.5) {
					target = src.Intn(len(log) - 1)
					if target >= i {
						target++
					}
				}
				sendIdx++
				lp.Send(target, float64(1+src.Intn(3)), binary.AppendUvarint(nil, sendIdx))
			}
		}
		var tick func()
		tick = func() {
			emit()
			lp.E.Schedule(1, tick)
		}
		lp.E.Schedule(1, tick)
		lp.OnMessage = func(m Event) {
			idx, _ := binary.Uvarint(m.Data)
			log[i] = append(log[i], delivery{m.Time, m.From, idx})
			if src.Bernoulli(0.25) {
				emit()
			}
		}
	}
}

// guardPin is what the guard records of one LP: its deliveries' count
// and an FNV-64 of their (time bits, source, send index) in delivery
// order, its engine's executed/scheduled/canceled/max-queue counts and
// its message counters.
func guardPin(log []delivery, s des.Stats, sent, recv uint64) string {
	h := fnv.New64a()
	var buf [24]byte
	for _, d := range log {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(d.time))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(d.from))
		binary.LittleEndian.PutUint64(buf[16:], d.sendIdx)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%d deliveries %016x events %d/%d/%d/%d sent %d received %d",
		len(log), h.Sum64(), s.Executed, s.Scheduled, s.Canceled, s.MaxQueue, sent, recv)
}

// TestFlatOutboxPinned is the bit-identity guard of the message path:
// for every FEL kind, worker count and seed, each destination sees its
// deliveries in the order the old outbox matrix gave them, and engine
// counters and message counters are what the matrix's run counted. It
// replaces TestFlatOutboxMatchesMatrixReference, which ran that matrix
// (one outbox per source and target pair, walked source-major at every
// barrier) beside the federation; the pins were recorded at commit
// 74e1d7d, where the matrix produced them under every FEL kind.
func TestFlatOutboxPinned(t *testing.T) {
	underPoolSwitches(t, testFlatOutboxPinned)
}

func testFlatOutboxPinned(t *testing.T) {
	const n, horizon = 6, 40
	pins := map[uint64][]string{
		1: {
			"223 deliveries 2d5ae53c3d89cd19 events 263/276/0/25 sent 121 received 235",
			"59 deliveries 9c3726a4d80b8d25 events 99/102/0/7 sent 76 received 61",
			"48 deliveries 0ed51b39a1accc12 events 88/92/0/7 sent 70 received 51",
			"49 deliveries 3ffb8154361fd6b9 events 89/95/0/8 sent 90 received 54",
			"41 deliveries 591199ca7f627095 events 81/84/0/7 sent 79 received 43",
			"57 deliveries 12ebf58cc068199d events 97/101/0/9 sent 68 received 60",
		},
		2: {
			"231 deliveries 813c339ba844b647 events 271/283/0/22 sent 142 received 242",
			"57 deliveries 1ee2a82955e5d60a events 97/99/0/8 sent 91 received 58",
			"62 deliveries 3be7d00d60c747ef events 102/105/0/8 sent 73 received 64",
			"75 deliveries 03fed4251ed3136e events 115/116/0/12 sent 80 received 75",
			"49 deliveries f3dc6352d7191112 events 89/93/0/9 sent 88 received 52",
			"59 deliveries 514a9736ca6aacbb events 99/100/0/7 sent 76 received 59",
		},
		77: {
			"234 deliveries a1ea9555f7ba73b8 events 274/285/0/18 sent 132 received 244",
			"67 deliveries 54500c4e1b9ac344 events 107/110/0/7 sent 77 received 69",
			"53 deliveries 2ad7510efe0f33bf events 93/97/0/9 sent 63 received 56",
			"57 deliveries e3ccdeb04fa0a7d6 events 97/102/0/11 sent 83 received 61",
			"40 deliveries 7dc2f75d7c453a56 events 80/82/0/7 sent 79 received 41",
			"39 deliveries be41555c34821a0f events 79/82/0/9 sent 78 received 41",
		},
	}
	for _, seed := range []uint64{1, 2, 77} {
		for _, kind := range eventq.Kinds() {
			for _, workers := range []int{1, 2, 4} {
				f := NewFederationWithQueue(n, 1, workers, seed, kind)
				log := make([][]delivery, n)
				installGuardModel(f, log)
				f.Run(horizon)
				requireCollisions(t, log[0])
				for i := 0; i < n; i++ {
					lp := f.LP(i)
					if got, want := guardPin(log[i], lp.E.Stats(), lp.Sent(), lp.Received()), pins[seed][i]; got != want {
						t.Fatalf("seed=%d/%s/workers=%d: LP %d\n got  %s\n want %s", seed, kind, workers, i, got, want)
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
// produced (recorded at commit b7f58ba), for one worker and two traced.
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
			if workers == 2 {
				ph.Fed.EnableObservability(1 << 12)
			}
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
