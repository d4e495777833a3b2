// Package optsim implements optimistic parallel simulation — Time
// Warp (Jefferson 1985): logical processes execute events
// speculatively without lookahead, detect causality violations when a
// straggler message arrives in their past, roll back to a saved state,
// and retract already-sent messages with anti-messages.
//
// Together with the conservative engines (parsim in-process, distsim
// over TCP) this completes the framework's coverage of the
// parallel/distributed DES design space the paper cites through Misra
// (1986) and Fujimoto (1993): conservative synchronization needs
// lookahead and pays barriers; optimistic synchronization needs
// neither but pays state saving and rollback. The Stats a run reports
// (rollbacks, retractions, wasted executions) are exactly the costs
// Fujimoto's skepticism is about.
//
// Models must be pure state machines: Handle receives a state and an
// event and returns the successor state plus messages to send, with no
// side effects — the property that makes rollback possible. Model
// randomness must live inside the state (CountModel carries its RNG
// state), so a re-executed event redraws identical values.
package optsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Message is a timestamped event between LPs.
type Message struct {
	Time     float64
	SendTime float64
	From, To int
	ID       uint64 // unique per materialized send; anti-message key
	Data     int64
}

// Send is a model-requested message emission.
type Send struct {
	To    int
	Delay float64 // must be > 0
	Data  int64
}

// State is opaque model state; the Model clones it for checkpoints.
type State any

// Model defines the simulated behavior. Handle must be pure: given
// equal (state, event) it must return equal results and touch nothing
// else.
type Model interface {
	// Init returns LP i's initial state and initial sends (delays
	// measured from time 0).
	Init(lp int) (State, []Send)
	// Handle processes one event.
	Handle(lp int, s State, ev Message) (State, []Send)
	// Clone deep-copies a state for checkpointing.
	Clone(s State) State
}

// Stats reports the cost profile of an optimistic run.
type Stats struct {
	NetEvents   uint64 // events that survived to commit
	Executions  uint64 // total speculative executions (incl. undone)
	Rollbacks   uint64
	Retractions uint64 // anti-messages sent
	MaxRollback int    // deepest single rollback (events undone)
	GVTAdvances uint64
}

// Efficiency returns committed/total executions (1.0 = no waste).
func (s Stats) Efficiency() float64 {
	if s.Executions == 0 {
		return 1
	}
	return float64(s.NetEvents) / float64(s.Executions)
}

type outRecord struct {
	inputIdx int // index of the input whose execution sent it
	to       int
	id       uint64
}

type olp struct {
	id        int
	initState State
	state     State
	inputs    []Message // sorted by (Time, ID); prefix [0,processed) executed
	processed int
	snapshots []State // snapshots[i] = state after inputs[i]
	outputs   []outRecord
}

// Federation executes a model optimistically over n LPs.
type Federation struct {
	model   Model
	lps     []*olp
	horizon float64
	nextID  uint64

	stats Stats
}

// NewFederation builds an optimistic federation of n LPs.
func NewFederation(model Model, n int, horizon float64) *Federation {
	if n <= 0 || horizon <= 0 || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		panic(fmt.Sprintf("optsim: NewFederation(n=%d, horizon=%v)", n, horizon))
	}
	f := &Federation{model: model, horizon: horizon}
	for i := 0; i < n; i++ {
		f.lps = append(f.lps, &olp{id: i})
	}
	for i, lp := range f.lps {
		st, sends := model.Init(i)
		lp.initState = model.Clone(st)
		lp.state = st
		for _, s := range sends {
			f.inject(i, 0, s)
		}
	}
	return f
}

// Stats returns the run's cost profile.
func (f *Federation) Stats() Stats { return f.stats }

// inject materializes a send into the target's input queue, rolling
// the target back if the message lands in its executed past.
func (f *Federation) inject(from int, now float64, s Send) {
	if s.Delay <= 0 {
		panic(fmt.Sprintf("optsim: send with delay %v", s.Delay))
	}
	if s.To < 0 || s.To >= len(f.lps) {
		panic(fmt.Sprintf("optsim: send to unknown LP %d", s.To))
	}
	f.nextID++
	m := Message{
		Time: now + s.Delay, SendTime: now,
		From: from, To: s.To, ID: f.nextID, Data: s.Data,
	}
	target := f.lps[s.To]
	idx := target.insertionPoint(m)
	if idx < target.processed {
		f.rollback(target, idx)
	}
	target.inputs = append(target.inputs, Message{})
	copy(target.inputs[idx+1:], target.inputs[idx:])
	target.inputs[idx] = m
}

// insertionPoint returns where m belongs in the sorted input queue.
func (lp *olp) insertionPoint(m Message) int {
	idx, _ := slices.BinarySearchFunc(lp.inputs, m, msgOrder)
	return idx
}

// msgOrder is the (Time, ID) total order of the sorted queues; IDs are
// unique, so distinct messages never compare equal. The comparison is
// monomorphic (no reflection, no interface calls), matching the
// slices.SortFunc treatment of the other hot paths.
func msgOrder(a, b Message) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// rollback undoes the target's executions from index idx onward:
// restore the state checkpoint and retract every message those
// executions sent.
func (f *Federation) rollback(lp *olp, idx int) {
	if idx >= lp.processed {
		return
	}
	f.stats.Rollbacks++
	if d := lp.processed - idx; d > f.stats.MaxRollback {
		f.stats.MaxRollback = d
	}
	// Retract outputs of undone executions. Collect first: retraction
	// can cascade into further rollbacks (even of this same LP's
	// senders), but never of this LP past idx, because retracted
	// messages were sent at times >= inputs[idx].Time.
	var retract []outRecord
	keep := lp.outputs[:0]
	for _, o := range lp.outputs {
		if o.inputIdx >= idx {
			retract = append(retract, o)
		} else {
			keep = append(keep, o)
		}
	}
	lp.outputs = keep
	// Restore state.
	if idx == 0 {
		lp.state = f.model.Clone(lp.initState)
	} else {
		lp.state = f.model.Clone(lp.snapshots[idx-1])
	}
	lp.snapshots = lp.snapshots[:idx]
	lp.processed = idx
	for _, o := range retract {
		f.stats.Retractions++
		f.annihilate(o.to, o.id)
	}
}

// annihilate removes message id from the target's input queue, rolling
// the target back first when the message was already executed.
func (f *Federation) annihilate(to int, id uint64) {
	target := f.lps[to]
	for i, m := range target.inputs {
		if m.ID != id {
			continue
		}
		if i < target.processed {
			f.rollback(target, i)
		}
		target.inputs = append(target.inputs[:i], target.inputs[i+1:]...)
		return
	}
	// Already annihilated by a cascading rollback: fine.
}

// step executes one speculative event on the LP, if it has one within
// the horizon. Returns false when the LP is (currently) exhausted.
func (f *Federation) step(lp *olp) bool {
	if lp.processed >= len(lp.inputs) {
		return false
	}
	ev := lp.inputs[lp.processed]
	if ev.Time > f.horizon {
		return false
	}
	newState, sends := f.model.Handle(lp.id, lp.state, ev)
	f.stats.Executions++
	lp.state = newState
	lp.snapshots = append(lp.snapshots, f.model.Clone(newState))
	inputIdx := lp.processed
	lp.processed++
	for _, s := range sends {
		f.inject(lp.id, ev.Time, s)
		lp.outputs = append(lp.outputs, outRecord{inputIdx: inputIdx, to: s.To, id: f.nextID})
	}
	return true
}

// GVT returns the global virtual time: the minimum timestamp of any
// unexecuted event (+Inf when drained). Everything below GVT is
// committed and can never roll back.
func (f *Federation) GVT() float64 {
	gvt := math.Inf(1)
	for _, lp := range f.lps {
		if lp.processed < len(lp.inputs) && lp.inputs[lp.processed].Time < gvt {
			gvt = lp.inputs[lp.processed].Time
		}
	}
	return gvt
}

// Run executes to the horizon, deliberately round-robining the LPs one
// event at a time — maximally aggressive speculation, so causality
// violations (and hence rollbacks) actually occur and Time Warp's
// machinery is exercised. It returns final per-LP states.
func (f *Federation) Run() []State {
	for {
		progressed := false
		prevGVT := f.GVT()
		for _, lp := range f.lps {
			if f.step(lp) {
				progressed = true
			}
		}
		if gvt := f.GVT(); gvt > prevGVT {
			f.stats.GVTAdvances++
		}
		if !progressed {
			break
		}
	}
	out := make([]State, len(f.lps))
	for i, lp := range f.lps {
		out[i] = lp.state
		f.stats.NetEvents += uint64(lp.processed)
	}
	return out
}

// RunSequential executes the same model on one global event queue in
// strict timestamp order — the oracle optimistic runs are verified
// against. It returns final per-LP states and per-LP event counts.
func RunSequential(model Model, n int, horizon float64) ([]State, []uint64) {
	states := make([]State, n)
	counts := make([]uint64, n)
	var queue []Message
	var nextID uint64
	push := func(from int, now float64, s Send) {
		nextID++
		m := Message{Time: now + s.Delay, SendTime: now, From: from, To: s.To, ID: nextID, Data: s.Data}
		idx, _ := slices.BinarySearchFunc(queue, m, msgOrder)
		queue = append(queue, Message{})
		copy(queue[idx+1:], queue[idx:])
		queue[idx] = m
	}
	for i := 0; i < n; i++ {
		st, sends := model.Init(i)
		states[i] = st
		for _, s := range sends {
			push(i, 0, s)
		}
	}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		if m.Time > horizon {
			continue
		}
		st, sends := model.Handle(m.To, states[m.To], m)
		states[m.To] = st
		counts[m.To]++
		for _, s := range sends {
			push(m.To, m.Time, s)
		}
	}
	return states, counts
}

// CountModel is a PHOLD-like pure model, the one Time Warp workload of
// the tests and of experiment E5c: each LP's state is an event counter
// plus its RNG state (randomness checkpoints with the state, so
// re-executed events redraw identical values). Every event increments
// the counter and emits one message — to a random LP with probability
// RemoteProb, else to self — after an exponential delay of mean
// MeanDelay. Seed offsets every LP's stream. Its methods implement
// Model.
type CountModel struct {
	N          int
	RemoteProb float64
	MeanDelay  float64
	Seed       uint64
}

type countState struct {
	count int64
	rng   uint64
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (m *CountModel) draw(s *countState) float64 {
	s.rng = splitmix(s.rng)
	u := float64(s.rng>>11) / (1 << 53)
	if u <= 0 {
		u = 0.5
	}
	return -math.Log(u) * m.MeanDelay
}

func (m *CountModel) Init(lp int) (State, []Send) {
	s := &countState{rng: uint64(lp)*2654435761 + m.Seed}
	return s, []Send{{To: lp, Delay: m.draw(s)}}
}

func (m *CountModel) Handle(lp int, raw State, ev Message) (State, []Send) {
	s := raw.(*countState)
	next := &countState{count: s.count + 1, rng: s.rng}
	delay := m.draw(next)
	to := lp
	next.rng = splitmix(next.rng)
	if m.N > 1 && float64(next.rng>>11)/(1<<53) < m.RemoteProb {
		next.rng = splitmix(next.rng)
		to = int(next.rng % uint64(m.N))
	}
	return next, []Send{{To: to, Delay: delay}}
}

func (m *CountModel) Clone(raw State) State {
	cp := *raw.(*countState)
	return &cp
}
