package distsim

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/winsync"
)

// This file is the coordinator's control core: the state a distributed
// run is synchronised on, the transitions that change it, and its one
// codec. It is pure — no sockets, files or clocks (control_test.go fails
// if net, os, time or internal/obs are ever imported here) — so the
// live window loop, journal replay and rollback all drive the same
// code: the loop calls a transition and journals its record, replay
// decodes the record and calls the transition again, and a cluster
// checkpoint is an encoded cut of this state plus worker snapshots.

// slot is one worker seat's share of the control state.
type slot struct {
	lps     []int   // owned LPs, sorted: the live assignment; nil until first registered
	pending []Event // routed to this seat, going out with the next window frame
	epoch   int     // incarnation counter; the seat's session id derives from it
	regKey  string  // LP-set key its worker registered with; a relaunched worker presents it again
}

// control is the control state of one run. The run parameters are
// fixed; clock, counters and each seat's LP set and pending events are
// the cut a rollback reinstates; epoch and regKey describe the worker
// process on a seat and survive rollbacks.
type control struct {
	nLPs      int
	lookahead float64
	horizon   float64
	seed      uint64

	clock                    float64
	windows, skipped, routed uint64
	slots                    []slot
	owner                    []int // LP -> seat, derived from the LP sets by index
}

// newControl returns the state of a run nobody has registered for yet:
// nWorkers blank seats at time zero.
func newControl(nLPs int, lookahead, horizon float64, seed uint64, nWorkers int) *control {
	return &control{nLPs: nLPs, lookahead: lookahead, horizon: horizon, seed: seed, slots: make([]slot, nWorkers)}
}

// lpKey is the canonical identity of an LP set: its sorted id list.
func lpKey(ids []int) string { return fmt.Sprint(ids) }

// index derives owner from the seats' LP sets, which must partition
// [0, nLPs) exactly.
func (c *control) index() error {
	owner := make([]int, c.nLPs)
	for i := range owner {
		owner[i] = -1
	}
	for wi := range c.slots {
		for _, lp := range c.slots[wi].lps {
			if lp < 0 || lp >= c.nLPs {
				return fmt.Errorf("worker %d owns unknown LP %d", wi, lp)
			}
			if owner[lp] != -1 {
				return fmt.Errorf("LP %d owned twice", lp)
			}
			owner[lp] = wi
		}
	}
	for lp, w := range owner {
		if w == -1 {
			return fmt.Errorf("LP %d unowned", lp)
		}
	}
	c.owner = owner
	return nil
}

// windowEnd is where the next window ends: one lookahead on, clamped
// to the horizon.
func (c *control) windowEnd() float64 { return min(c.clock+c.lookahead, c.horizon) }

// commit closes the window ending at windowEnd. What each seat had
// pending went out with the window frames; the events the window
// produced, already in (From, Seq) order, are routed to their owners'
// seats. Nothing changes when an event names an unknown LP.
func (c *control) commit(produced []Event) error {
	for i := range produced {
		if to := produced[i].To; to < 0 || to >= c.nLPs {
			return fmt.Errorf("event for unknown LP %d (run configured with %d LPs)", to, c.nLPs)
		}
	}
	for wi := range c.slots {
		c.slots[wi].pending = c.slots[wi].pending[:0]
	}
	for i := range produced {
		s := &c.slots[c.owner[produced[i].To]]
		s.pending = append(s.pending, produced[i])
	}
	c.clock = c.windowEnd()
	c.windows++
	c.routed += uint64(len(produced))
	return nil
}

// skip jumps the windows that would execute nothing. next is the
// earliest event time anywhere in the federation, so a window ending
// strictly before it is empty; one ending exactly at next must run,
// because RunUntil is inclusive at the boundary. The jump walks the
// same clock += lookahead lattice executed windows do, so later
// barriers land on the clock values of the non-skipping run. It
// returns how many windows it jumped.
func (c *control) skip(next float64) (n uint64) {
	for c.clock < c.horizon && next > c.windowEnd() {
		c.clock = c.windowEnd()
		n++
	}
	c.skipped += n
	return n
}

// checkMove reports whether LP lp can move from seat from to seat to:
// the seats exist and differ, from owns lp, and keeps at least one LP.
func (c *control) checkMove(lp, from, to int) error {
	if lp < 0 || lp >= c.nLPs || from < 0 || from >= len(c.slots) || to < 0 || to >= len(c.slots) ||
		from == to || c.owner[lp] != from || len(c.slots[from].lps) <= 1 {
		return fmt.Errorf("invalid move of LP %d: %d -> %d", lp, from, to)
	}
	return nil
}

// migrate commits one LP migration: the assignment changes and the
// events already routed to the donor for that LP follow it, keeping
// their arrival order.
func (c *control) migrate(lp, from, to int) error {
	if err := c.checkMove(lp, from, to); err != nil {
		return err
	}
	src, dst := &c.slots[from], &c.slots[to]
	src.lps = slices.DeleteFunc(src.lps, func(id int) bool { return id == lp })
	pos, _ := slices.BinarySearch(dst.lps, lp)
	dst.lps = slices.Insert(dst.lps, pos, lp)
	kept := src.pending[:0]
	for _, ev := range src.pending {
		if ev.To == lp {
			dst.pending = append(dst.pending, ev)
		} else {
			kept = append(kept, ev)
		}
	}
	src.pending = kept
	return c.index()
}

// reseat records a fresh worker process on seat wi: the key of the LP
// set it registered and a new epoch, so a zombie of the seat's previous
// incarnation can never be re-adopted into the run. A blank seat takes
// the registered set as its assignment.
func (c *control) reseat(wi int, ids []int) {
	s := &c.slots[wi]
	if s.lps == nil {
		s.lps = ids
	}
	s.epoch++
	s.regKey = lpKey(ids)
}

// The codec. Every count is checked against the bytes left before
// anything is allocated: each element costs at least one byte, so a
// larger count is corruption, not a big record.

func encLPs(enc *checkpoint.Enc, ids []int) {
	enc.Int(len(ids))
	for _, id := range ids {
		enc.Int(id)
	}
}

// decCount reads an element count and bounds it by the bytes left.
func decCount(d *checkpoint.Dec, what string) (int, error) {
	n := d.Int()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if n < 0 || n > d.Remaining() {
		return 0, fmt.Errorf("%s count %d exceeds payload", what, n)
	}
	return n, nil
}

func decLPs(d *checkpoint.Dec) ([]int, error) {
	n, err := decCount(d, "LP")
	if err != nil {
		return nil, err
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = d.Int()
	}
	return ids, nil
}

func encEvents(enc *checkpoint.Enc, evs []Event) {
	enc.Int(len(evs))
	for i := range evs {
		winsync.AppendEvent(enc, &evs[i])
	}
}

// decEvents decodes an event list. Payloads are views into the
// decoder's buffer, which every caller keeps and never overwrites.
func decEvents(d *checkpoint.Dec) ([]Event, error) {
	n, err := decCount(d, "pending")
	if err != nil {
		return nil, err
	}
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = winsync.DecodeEvent(d)
	}
	return evs, nil
}

// cut encodes what a rollback reinstates: clock, counters, and each
// seat's LP set and pending events. The bytes own their event payloads,
// so a cut taken at a barrier stays valid while the run moves on.
func (c *control) cut() []byte {
	var enc checkpoint.Enc
	enc.F64(c.clock)
	enc.U64(c.windows)
	enc.U64(c.skipped)
	enc.U64(c.routed)
	for wi := range c.slots {
		encLPs(&enc, c.slots[wi].lps)
		encEvents(&enc, c.slots[wi].pending)
	}
	return enc.Bytes()
}

// reset reinstates a cut and re-derives owner. Epochs and registration
// keys stay: they describe worker processes, which a rollback does not
// undo. Pending payloads are views into cut, which the caller keeps.
// On error nothing has changed.
func (c *control) reset(cut []byte) error {
	d := checkpoint.NewDec(cut)
	to := *c
	to.clock = d.F64()
	to.windows = d.U64()
	to.skipped = d.U64()
	to.routed = d.U64()
	to.slots = slices.Clone(c.slots)
	for wi := range to.slots {
		var err error
		if to.slots[wi].lps, err = decLPs(d); err != nil {
			return fmt.Errorf("seat %d: %v", wi, err)
		}
		if to.slots[wi].pending, err = decEvents(d); err != nil {
			return fmt.Errorf("seat %d: %v", wi, err)
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("cut has %d trailing bytes", d.Remaining())
	}
	if err := to.index(); err != nil {
		return err
	}
	*c = to
	return nil
}

// encode appends the state around cut (c.cut(), or one taken earlier
// at the barrier being persisted): worker and LP counts and each seat's
// epoch and registration key. Lookahead, horizon and seed are left to
// whoever decodes it, to supply from its configuration or check.
func (c *control) encode(enc *checkpoint.Enc, cut []byte) {
	enc.Int(len(c.slots))
	enc.Int(c.nLPs)
	for wi := range c.slots {
		enc.Int(c.slots[wi].epoch)
		enc.Str(c.slots[wi].regKey)
	}
	enc.Raw(cut)
}

// decodeControl is the inverse of encode.
func decodeControl(d *checkpoint.Dec) (*control, error) {
	nWorkers, nLPs := d.Int(), d.Int()
	// Every seat owns an LP and every LP id takes a byte.
	if d.Err() != nil || nWorkers <= 0 || nWorkers > nLPs || nLPs > d.Remaining() {
		return nil, fmt.Errorf("state declares %d workers, %d LPs", nWorkers, nLPs)
	}
	c := &control{nLPs: nLPs, slots: make([]slot, nWorkers)}
	for wi := range c.slots {
		c.slots[wi].epoch = d.Int()
		c.slots[wi].regKey = d.Str()
	}
	if err := c.reset(d.RawView()); err != nil {
		return nil, err
	}
	return c, nil
}
