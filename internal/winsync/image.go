package winsync

import (
	"bytes"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/des"
)

// This file is the one per-LP codec. An LP image is everything an LP
// is at a window barrier: message counters, the inbox events addressed
// to it, its engine (clock, pending events, random streams), the table
// of deliveries pending in that engine and the model's State, in that
// order, all in one Enc and without a container of its own (the
// snapshot file that holds the image has the one).
// Because it is cut at a barrier and an LP's seed, streams and pending
// events move as a unit, an LP restored from its image — in this group
// or in another — executes the exact event sequence it would have
// executed undisturbed.

// image serializes the LP. It requires every pending event in its
// engine to be op-scheduled (deliveries always are; the model's must
// be too) and its sends to have been flushed.
func (lp *LP) image() ([]byte, error) {
	if len(lp.outbox) != 0 {
		return nil, fmt.Errorf("winsync: LP %d has %d unflushed sends (not at a window barrier)", lp.ID, len(lp.outbox))
	}
	var enc checkpoint.Enc
	enc.Int(lp.ID)
	enc.U64(lp.sendSeq)
	enc.U64(lp.recv)
	enc.U64(lp.idle())
	enc.Bool(lp.State != nil)
	var n int
	for i := range lp.g.inbox {
		if lp.g.inbox[i].To == lp.ID {
			n++
		}
	}
	enc.Int(n)
	for i := range lp.g.inbox {
		if ev := &lp.g.inbox[i]; ev.To == lp.ID {
			AppendEvent(&enc, ev)
		}
	}
	if err := lp.E.AppendState(&enc); err != nil {
		return nil, fmt.Errorf("winsync: LP %d: %w", lp.ID, err)
	}
	lp.msgs.AppendState(&enc, AppendEvent)
	if lp.State != nil {
		if err := lp.State.AppendState(&enc); err != nil {
			return nil, fmt.Errorf("winsync: LP %d model state: %w", lp.ID, err)
		}
	}
	return enc.Bytes(), nil
}

// imageID reads the LP ID an image starts with.
func imageID(img []byte) (int, error) {
	d := checkpoint.NewDec(img)
	id := d.Int()
	return id, d.Err()
}

// restore overwrites the LP from an image of the same LP; the image's
// inbox events join the group's inbox, which must hold none for this LP.
// The model's ops must be registered: the engine resolves pending ops
// by name. The header and inbox are checked before the engine, the
// pending deliveries and the model, which come last, are restored.
func (lp *LP) restore(img []byte) error {
	d := checkpoint.NewDec(img)
	id := d.Int()
	sendSeq := d.U64()
	recv := d.U64()
	idle := d.U64()
	hasState := d.Bool()
	n := d.Int()
	if err := d.Err(); err != nil {
		return fmt.Errorf("winsync: LP %d image: %w", lp.ID, err)
	}
	if id != lp.ID {
		return fmt.Errorf("winsync: image of LP %d offered to LP %d", id, lp.ID)
	}
	if hasState != (lp.State != nil) {
		return fmt.Errorf("winsync: LP %d: image carries model state: %v, model keeps state: %v", id, hasState, lp.State != nil)
	}
	if n < 0 || n > d.Remaining() { // an event costs at least a byte
		return fmt.Errorf("winsync: LP %d image: inbox count %d exceeds payload", id, n)
	}
	inbox := make([]Event, n)
	for i := range inbox {
		ev := DecodeEvent(d)
		// The inbox is written to this LP, in delivery order.
		if d.Err() == nil && (ev.To != id || ev.From < 0 || ev.From >= lp.g.total || i > 0 && EventOrder(inbox[i-1], ev) >= 0) {
			return fmt.Errorf("winsync: LP %d image: inbox event %d (from LP %d to %d, seq %d) is foreign or out of order", id, i, ev.From, ev.To, ev.Seq)
		}
		// The inbox outlives the image buffer, which may be a transport's.
		ev.Data = bytes.Clone(ev.Data)
		inbox[i] = ev
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("winsync: LP %d image: %w", id, err)
	}
	if err := lp.E.RestoreState(d); err != nil {
		return fmt.Errorf("winsync: LP %d: %w", id, err)
	}
	var msgs des.Table[Event]
	err := msgs.RestoreState(d, func(d *checkpoint.Dec, ev *Event) error {
		*ev = DecodeEvent(d)
		if d.Err() == nil && (ev.To != id || ev.From < 0 || ev.From >= lp.g.total || ev.Seq == 0) {
			return fmt.Errorf("pending delivery from LP %d to %d, seq %d, is foreign", ev.From, ev.To, ev.Seq)
		}
		ev.Data = bytes.Clone(ev.Data)
		return nil
	})
	if err != nil {
		return fmt.Errorf("winsync: LP %d image: %w", id, err)
	}
	if hasState {
		if err := lp.State.RestoreState(d); err != nil {
			return fmt.Errorf("winsync: LP %d model state: %w", id, err)
		}
	}
	if r := d.Remaining(); r != 0 {
		return fmt.Errorf("winsync: LP %d image has %d trailing bytes", id, r)
	}
	lp.sendSeq, lp.recv, lp.active = sendSeq, recv, lp.g.windows-idle
	lp.msgs = msgs
	clear(lp.outbox) // drop the payload references
	lp.outbox = lp.outbox[:0]
	// The load watermarks restart from the restored counters, so the
	// next delta cannot underflow.
	lp.prevExec = lp.E.Executed()
	lp.busyNs = 0
	lp.g.inbox = append(lp.g.inbox, inbox...)
	lp.g.unsorted = true
	return nil
}

// adopt builds an LP the group does not own and restores it from img.
func (g *Group) adopt(id int, img []byte) error {
	if g.Install == nil {
		return fmt.Errorf("winsync: no Install hook; LP %d cannot be adopted", id)
	}
	if id < 0 || id >= g.total {
		return fmt.Errorf("winsync: image of unknown LP %d", id)
	}
	lp := g.newLP(id)
	g.Install(lp)
	if lp.OnMessage == nil {
		return fmt.Errorf("winsync: Install left LP %d without an OnMessage handler", id)
	}
	if err := lp.restore(img); err != nil {
		return err
	}
	g.insert(lp)
	g.slot()
	return nil
}

// Adopt installs an LP from an image cut by Extract in another group.
// An image of an LP the group already owns is ignored: transports
// suppress duplicates, and a no-op beats corrupting live state.
func (g *Group) Adopt(img []byte) error {
	id, err := imageID(img)
	if err != nil {
		return fmt.Errorf("winsync: LP image: %w", err)
	}
	if g.LP(id) != nil {
		return nil
	}
	return g.adopt(id, img)
}

// Extract cuts the image of LP id and removes the LP from the group.
// Nothing is changed unless the image could be cut.
func (g *Group) Extract(id int) ([]byte, error) {
	lp := g.LP(id)
	if lp == nil {
		return nil, fmt.Errorf("winsync: LP %d is not owned by this group", id)
	}
	if len(g.order) == 1 {
		return nil, fmt.Errorf("winsync: LP %d is this group's last; refusing to give it away", id)
	}
	g.sortInbox()
	img, err := lp.image()
	if err != nil {
		return nil, err
	}
	g.remove(id)
	return img, nil
}

// WriteSnapshot writes one SecLP section per owned LP, in ID order.
// The group must be at a window barrier.
func (g *Group) WriteSnapshot(cw *checkpoint.Writer) error {
	g.sortInbox()
	for _, lp := range g.order {
		img, err := lp.image()
		if err != nil {
			return err
		}
		if err := cw.Section(SecLP, img); err != nil {
			return err
		}
	}
	return nil
}

// Restore makes the group what the snapshot's SecLP sections say: LPs
// they cover are restored in place, or adopted when the group lacks
// them (a rollback across a migration); LPs they do not cover are
// dropped.
func (g *Group) Restore(snap *checkpoint.Snapshot) error {
	imgs := snap.All(SecLP)
	if len(imgs) == 0 {
		return fmt.Errorf("winsync: snapshot has no %s section", SecLP)
	}
	// Every LP is about to be restored or dropped: the images bring the
	// whole inbox.
	clear(g.inbox)
	g.inbox = g.inbox[:0]
	covered := make(map[int]bool, len(imgs))
	for _, img := range imgs {
		id, err := imageID(img)
		if err != nil {
			return fmt.Errorf("winsync: LP image: %w", err)
		}
		if covered[id] {
			return fmt.Errorf("winsync: snapshot has two images of LP %d", id)
		}
		covered[id] = true
		if lp := g.LP(id); lp != nil {
			err = lp.restore(img)
		} else {
			err = g.adopt(id, img)
		}
		if err != nil {
			return err
		}
	}
	for i := len(g.order) - 1; i >= 0; i-- {
		if id := g.order[i].ID; !covered[id] {
			g.remove(id)
		}
	}
	return nil
}
