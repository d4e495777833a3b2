// Package winsync is the windowed-synchronization kernel: conservative
// lock-step lookahead windows (the synchronous, bounded-lag variant of
// Chandy/Misra/Bryant) over a set of logical processes.
//
// A model is partitioned into LPs, each owning a private des.Engine.
// Cross-LP interactions go through LP.Send and carry a delay of at
// least the lookahead, so inside one window every LP can run
// independently: nothing sent in a window can land in the same window.
// A Group is the set of LPs one process owns. Per window it
//
//   - runs every LP up to the window end on an internal/pool
//     (RunWindow);
//   - moves each LP's buffered sends, in LP order, to the group's inbox
//     when it owns the target LP and to the transport's outbox when it
//     does not (Flush);
//   - schedules the inbox, together with the events the transport
//     brought from other groups, into the target engines in (sending
//     LP, send sequence) order as a registered op (Deliver).
//
// That order fixes the FEL sequence numbers of same-instant deliveries
// and depends on nothing but the LPs themselves, and an LP's engine is
// seeded from its ID alone: results are the same bits for every
// partition of the LPs into groups and every thread count. Package
// parsim is the transport with no wire (one group owns every LP);
// package distsim puts frames, a coordinator and fault tolerance
// between groups.
//
// Because deliveries are pending ops over records of the LP's delivery
// table, an LP at a window barrier is always serializable. One per-LP
// image (engine, delivery table, counters, model state, its share of
// the inbox) is the unit of both checkpoint and migration:
// a group snapshot is the image of each of its LPs, and restoring one
// adopts the LPs the group lacks and drops those the snapshot does not
// cover.
package winsync

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pool"
)

// Event is one cross-LP message.
type Event struct {
	Time float64 // absolute delivery time
	From int     // sending LP
	To   int     // receiving LP
	Seq  uint64  // per-sender sequence, for deterministic ordering
	// Data is the model payload, encoded by the sender. The handler may
	// retain it; the sender must not mutate it after Send.
	Data []byte
}

// EventOrder is the deterministic delivery order: (sending LP,
// per-sender sequence).
func EventOrder(a, b Event) int {
	if a.From != b.From {
		return cmp.Compare(a.From, b.From)
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// AppendEvent serializes one event: an inbox entry or a pending
// delivery of an LP image, an event on distsim's wire.
func AppendEvent(enc *checkpoint.Enc, ev *Event) {
	enc.F64(ev.Time)
	enc.Int(ev.From)
	enc.Int(ev.To)
	enc.U64(ev.Seq)
	enc.Raw(ev.Data)
}

// DecodeEvent decodes one event. Data is a zero-copy view into the
// decoder's payload (see checkpoint.Dec.RawView): the caller consumes
// or copies it before that buffer is reused.
func DecodeEvent(d *checkpoint.Dec) Event {
	return Event{
		Time: d.F64(),
		From: d.Int(),
		To:   d.Int(),
		Seq:  d.U64(),
		Data: d.RawView(),
	}
}

// SecLP names the snapshot sections holding one LP image each.
const SecLP = "winsync.lp"

// LP is one logical process: a partition of the model with a private
// engine and clock.
type LP struct {
	ID int
	E  *des.Engine
	// OnMessage handles events addressed to this LP; it runs in engine
	// context at the event's timestamp. The model sets it before the
	// first window.
	OnMessage func(ev Event)
	// State is the model's state for this LP beyond its pending events
	// (counters, caches). It rides in the LP image, so it is saved,
	// restored and migrated with the LP; nil when the model keeps none.
	State checkpoint.Checkpointable

	g     *Group
	msgOp des.Op
	// msgs holds the deliveries pending in the engine: each winsync.msg
	// event's argument is its record's index.
	msgs des.Table[Event]

	// outbox buffers this window's sends in send order. Only the thread
	// running the LP appends to it; Flush drains it at the barrier.
	outbox []Event

	sendSeq uint64 // sends so far; the Seq of the last one
	recv    uint64 // events delivered into the engine

	// active is the group's window count less the LP's idle skips: a
	// window the LP is not due in touches nothing of it (idle).
	active uint64

	// Load signal (Group.Timed): busyNs is the wall time spent executing
	// since the last LoadDeltas, busyTotal since the start, prevExec the
	// executed-event watermark behind the delta.
	busyNs    int64
	busyTotal int64
	prevExec  uint64

	// rec and met are the engine's observer, nil unless the group is
	// observed (observe.go).
	rec *obs.Recorder
	met *obs.Metrics
}

// Send schedules an event for LP to, delay after the LP's local now.
// The delay must be a finite number no smaller than the lookahead, and
// to must be an LP of the simulation: anything else would surface as a
// panic in the receiver's engine at the next barrier — in another
// process, for distsim — so it panics here, in the sender.
func (lp *LP) Send(to int, delay float64, data []byte) {
	g := lp.g
	if !(delay >= g.lookahead) || math.IsInf(delay, 0) {
		panic(fmt.Sprintf("winsync: LP %d: Send with delay %v, lookahead %v", lp.ID, delay, g.lookahead))
	}
	if to < 0 || to >= g.total {
		panic(fmt.Sprintf("winsync: LP %d: Send to unknown LP %d", lp.ID, to))
	}
	if !g.inWindow {
		g.strays = true
	}
	lp.sendSeq++
	lp.outbox = append(lp.outbox, Event{
		Time: lp.E.Now() + delay,
		From: lp.ID, To: to,
		Seq:  lp.sendSeq,
		Data: data,
	})
}

// Lookahead returns the minimum cross-LP delay.
func (lp *LP) Lookahead() float64 { return lp.g.lookahead }

// Sent returns the number of cross-LP events this LP has produced.
func (lp *LP) Sent() uint64 { return lp.sendSeq }

// Received returns the number of cross-LP events delivered to it.
func (lp *LP) Received() uint64 { return lp.recv }

// BusyNs returns the wall time the LP has spent executing; zero unless
// the group is Timed.
func (lp *LP) BusyNs() uint64 { return uint64(lp.busyTotal) }

// Group is the set of LPs one process owns.
type Group struct {
	// Install prepares an LP the group adopts mid-run (Adopt, or a
	// Restore from a snapshot covering LPs the group lacks) the way the
	// model prepared the initial ones: OnMessage, registered ops, State —
	// but no events, those arrive with the LP image. Adoption fails
	// without it.
	Install func(lp *LP)
	// Timed makes RunWindow time every LP it executes, two clock reads
	// per due LP: the load signal behind LoadDeltas and LP.BusyNs.
	Timed bool

	// byID is indexed by LP ID, nil where the group does not own the LP:
	// Flush looks every event's target up, so this is not a map. Its
	// length is bounded by the largest ID owned, which is below total.
	byID  []*LP
	order []*LP // ascending ID: execution, flush and snapshot order
	ids   []int
	// heads[i] is where order[i]'s engine keeps its Head bound
	// (des.Engine.HeadSlot): RunWindow's scan reads one array.
	heads []float64

	total     int
	lookahead float64
	seed      uint64

	// end and seq, the running window's end and barrier sequence, and
	// due, its LPs with work in ascending ID, are published to the pool
	// threads by the barrier inside pl.Run. windows counts the RunWindow
	// calls: an LP's idle skips are derived from it (LP.active).
	end       float64
	seq       uint64
	due       []*LP
	windows   uint64
	pl        *pool.Pool
	poolStats pool.Stats // summed over closed pools

	// inbox holds the flushed events for LPs of this group, until
	// Deliver schedules them: in EventOrder by construction, unless an
	// adopted or restored LP brought its share along (unsorted).
	inbox    []Event
	unsorted bool

	// inWindow is set while the pool runs a window; a Send outside one
	// sets strays, and the next Flush walks every LP instead of due.
	inWindow, strays bool

	// arena is the chunk Deliver copies remote payloads into (keep):
	// one allocation per chunk, not per message.
	arena []byte

	obs *observation // nil unless EnableObservability was called
}

// NewGroup creates the LPs with the given IDs, out of a simulation of
// total LPs numbered from 0. Each engine is seeded from the base seed
// and the LP's ID alone, so an LP draws the same streams whichever
// group hosts it.
func NewGroup(ids []int, total int, lookahead float64, seed uint64) *Group {
	if len(ids) == 0 || !(lookahead > 0) {
		panic(fmt.Sprintf("winsync: NewGroup(%d LPs, lookahead=%v)", len(ids), lookahead))
	}
	g := &Group{total: total, lookahead: lookahead, seed: seed}
	for _, id := range ids {
		if id < 0 || id >= total {
			panic(fmt.Sprintf("winsync: LP %d outside [0, %d)", id, total))
		}
		if g.LP(id) != nil {
			panic(fmt.Sprintf("winsync: duplicate LP %d", id))
		}
		g.insert(g.newLP(id))
	}
	g.slot()
	return g
}

const arenaChunk = 4096 // bytes of a Group.arena chunk

func (g *Group) newLP(id int) *LP {
	lp := &LP{
		ID: id,
		E:  des.NewEngine(des.WithSeed(g.seed + uint64(id)*0x9e3779b9)),
		g:  g,
		// No idle skip yet. Not in insert: adopt restores the image first.
		active: g.windows,
	}
	// Registered before any model op: op 1 in every engine. Every sent
	// event has a Seq of 1 or more; a freed record has 0.
	lp.msgOp = lp.E.RegisterOp("winsync.msg", func(arg []byte) {
		ev := *lp.msgs.At(arg)
		if ev.Seq == 0 {
			panic(fmt.Sprintf("winsync: LP %d: corrupt delivery: op argument %x names a free record", lp.ID, arg))
		}
		lp.msgs.Put(arg)
		lp.OnMessage(ev)
	})
	if g.obs != nil {
		g.obs.attach(lp)
	}
	return lp
}

func (g *Group) insert(lp *LP) {
	pos, _ := slices.BinarySearch(g.ids, lp.ID)
	if lp.ID >= len(g.byID) {
		g.byID = append(g.byID, make([]*LP, lp.ID+1-len(g.byID))...)
	}
	g.byID[lp.ID] = lp
	g.order = slices.Insert(g.order, pos, lp)
	g.ids = slices.Insert(g.ids, pos, lp.ID)
}

// slot moves every engine's Head bound into a fresh heads array, in
// order's order: once NewGroup built its LPs and whenever one arrives
// or leaves, not on every insert, which would make NewGroup quadratic.
func (g *Group) slot() {
	heads := make([]float64, len(g.order))
	for i, lp := range g.order {
		lp.E.HeadSlot(&heads[i])
	}
	// The due list may hold an LP that left: the next Flush walks all.
	g.heads, g.due, g.strays = heads, make([]*LP, 0, len(g.order)), true
}

// remove forgets LP id and its share of the inbox: the one place an LP
// leaves the group.
func (g *Group) remove(id int) {
	if o, lp := g.obs, g.byID[id]; o != nil {
		o.dropped += lp.rec.Dropped()
		o.base.Exec.Merge(&lp.met.Exec)
		o.base.Dwell.Merge(&lp.met.Dwell)
	}
	g.inbox = slices.DeleteFunc(g.inbox, func(ev Event) bool { return ev.To == id })
	pos, _ := slices.BinarySearch(g.ids, id)
	g.byID[id] = nil
	g.order = slices.Delete(g.order, pos, pos+1)
	g.ids = slices.Delete(g.ids, pos, pos+1)
	g.slot()
}

// LP returns the LP with the given ID, nil when the group does not own
// it.
func (g *Group) LP(id int) *LP {
	if uint(id) < uint(len(g.byID)) {
		return g.byID[id]
	}
	return nil
}

// LPs returns the owned LPs in ID order.
func (g *Group) LPs() []*LP { return g.order }

// IDs returns the owned LP IDs, ascending.
func (g *Group) IDs() []int { return g.ids }

// Lookahead returns the minimum cross-LP delay.
func (g *Group) Lookahead() float64 { return g.lookahead }

// IdleSkips returns the number of (LP, window) pairs skipped because
// the LP had nothing due inside the window.
func (g *Group) IdleSkips() uint64 {
	var sum uint64
	for _, lp := range g.order {
		sum += lp.idle()
	}
	return sum
}

// idle returns the windows the LP was not due in or executed nothing in.
func (lp *LP) idle() uint64 { return lp.g.windows - lp.active }

// Start checks that every LP has its handler and builds the pool, of at
// most threads goroutines, that runs the windows until Stop.
func (g *Group) Start(threads int) error {
	for _, lp := range g.order {
		if lp.OnMessage == nil {
			return fmt.Errorf("winsync: LP %d has no OnMessage handler", lp.ID)
		}
	}
	g.pl = pool.New(threads, g.runLP)
	if o := g.obs; o != nil {
		for len(o.threads) < threads {
			o.threads = append(o.threads, threadObs{rec: obs.NewRecorder(o.spanCap)})
		}
		g.pl.SetObserve(func(thread int, waitStart, busyStart, busyEnd int64) {
			o.threads[thread].phases(int32(thread), g.end, g.seq, waitStart, busyStart, busyEnd)
		})
	}
	return nil
}

// Stop joins the pool's goroutines. It is idempotent and safe before
// Start.
func (g *Group) Stop() {
	if g.obs != nil {
		g.obs.window.stopped()
	}
	if g.pl != nil {
		g.pl.Close()
		g.poolStats = g.PoolStats()
		g.pl = nil
	}
}

// PoolStats reports how the windows so far were executed: inline on the
// caller's goroutine or dispatched to the pool's. Not to be called
// while a window runs.
func (g *Group) PoolStats() pool.Stats {
	st := g.poolStats
	if g.pl != nil {
		live := g.pl.Stats()
		st.Inline += live.Inline
		st.Dispatched += live.Dispatched
		st.Flips += live.Flips
	}
	return st
}

// RunWindow executes every LP up to end, on the pool (inline on the
// calling goroutine when the pool has one thread or finds that faster).
// Only the LPs whose engine Head is within the window are handed to the
// pool; the rest are not entered, and their idle skip is the window
// count going up, so a window costs one compare per LP, over the heads
// array, plus the LPs with work. seq is the transport's barrier
// sequence for the window; it only labels what an observed group
// records. The pool's barrier publishes end, seq and the due list to
// its threads and everything the LPs wrote back (head slots included)
// to the caller. A window that panics leaves the group to be restored.
func (g *Group) RunWindow(end float64, seq uint64) {
	g.end, g.seq = end, seq
	if g.obs != nil {
		g.obs.window.opened()
	}
	g.windows++
	// Branch-free, as being due is a coin flip per LP; slot sized due.
	due, order, n := g.due[:len(g.heads)], g.order[:len(g.heads)], 0
	for i, h := range g.heads {
		due[n] = order[i]
		if h <= end {
			n++
		}
	}
	g.due = due[:n]
	g.inWindow = true
	defer func() { g.inWindow = false }()
	g.pl.Run(len(g.due))
}

// runLP is the pool body: one due LP through the current window. Head
// is a lower bound, so a due LP may still execute nothing — its due
// events were canceled — and that is an idle skip as well: an LP skips
// a window exactly when its first live event lies beyond the end.
func (g *Group) runLP(_, i int) {
	lp := g.due[i]
	before := lp.E.Executed()
	if g.Timed {
		t := obs.Now()
		lp.E.RunUntil(g.end)
		d := obs.Now() - t
		lp.busyNs += d
		lp.busyTotal += d
	} else {
		lp.E.RunUntil(g.end)
	}
	if lp.E.Executed() != before {
		lp.active++
	}
}

// Flush drains every LP's send buffer, in LP order: events for LPs of
// this group go to its inbox, the rest are appended to out, the
// transport's outbox, which is returned. Each buffer is in send order
// and the LPs are walked in ID order, so both the inbox and what is
// appended to out are in EventOrder without sorting, whatever threads
// ran the window. Only the last window's due LPs can have sent, so
// those are the LPs walked, unless one sent outside a window. Buffers
// are truncated, not released.
func (g *Group) Flush(out []Event) []Event {
	walk := g.due
	if g.strays {
		walk, g.strays = g.order, false
	}
	for _, src := range walk {
		if len(src.outbox) == 0 {
			continue
		}
		for i := range src.outbox {
			ev := &src.outbox[i]
			if g.LP(ev.To) != nil {
				g.inbox = append(g.inbox, *ev)
			} else {
				out = append(out, *ev)
			}
		}
		clear(src.outbox) // drop the payload references
		src.outbox = src.outbox[:0]
	}
	if g.obs != nil {
		g.obs.window.flushed(g.end, g.seq)
	}
	return out
}

// Deliver schedules the inbox, merged with the events the transport
// received from other groups, into the target engines in EventOrder:
// each event becomes a record of its LP's table and one winsync.msg
// event naming it. With nothing from outside the inbox is in that order
// already and is not sorted. remote is consumed before Deliver returns:
// its payloads are copied, so the transport may reuse their buffers.
func (g *Group) Deliver(remote []Event) {
	var t0 int64
	if g.obs != nil {
		t0 = obs.Now()
	}
	if len(remote) > 0 {
		for _, ev := range remote {
			ev.Data = g.keep(ev.Data)
			g.inbox = append(g.inbox, ev)
		}
		g.unsorted = true
	}
	g.sortInbox()
	for i := range g.inbox {
		ev := &g.inbox[i]
		lp := g.LP(ev.To)
		if lp == nil {
			panic(fmt.Sprintf("winsync: received event for foreign LP %d", ev.To))
		}
		rec, arg := lp.msgs.Get()
		*rec = *ev
		lp.recv++
		lp.E.AtOp(ev.Time, lp.msgOp, arg)
	}
	clear(g.inbox) // drop the payload references
	g.inbox = g.inbox[:0]
	if g.obs != nil {
		g.obs.window.delivered(t0)
	}
}

// keep copies a remote payload into the arena, as a full-capacity
// slice, so that a handler keeping it cannot append into the next one.
// An empty payload stays as it is.
func (g *Group) keep(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	if cap(g.arena)-len(g.arena) < len(data) {
		g.arena = make([]byte, 0, max(arenaChunk, len(data)))
	}
	n := len(g.arena)
	g.arena = append(g.arena, data...)
	return g.arena[n:len(g.arena):len(g.arena)]
}

// sortInbox restores EventOrder after events from elsewhere joined the
// inbox: Deliver needs it, and LP images are cut from it so that they
// do not depend on the order the events arrived in.
func (g *Group) sortInbox() {
	if g.unsorted {
		slices.SortFunc(g.inbox, EventOrder)
		g.unsorted = false
	}
}

// Next reports the earliest pending event time in the group: the
// minimum over the engines and the inbox. +Inf means drained.
func (g *Group) Next() float64 {
	next := math.Inf(1)
	for _, lp := range g.order {
		if t := lp.E.PeekTime(); t < next {
			next = t
		}
	}
	for i := range g.inbox {
		if t := g.inbox[i].Time; t < next {
			next = t
		}
	}
	return next
}

// LoadDeltas appends to buf, per LP, the events executed and the busy
// wall time (Timed) since the previous call.
func (g *Group) LoadDeltas(buf []partition.Load) []partition.Load {
	for _, lp := range g.order {
		exec := lp.E.Executed()
		buf = append(buf, partition.Load{
			LP:     lp.ID,
			Events: exec - lp.prevExec,
			BusyNs: uint64(lp.busyNs),
		})
		lp.prevExec = exec
		lp.busyNs = 0
	}
	return buf
}
