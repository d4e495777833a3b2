package parsim

import (
	"fmt"
	"io"

	"repro/internal/checkpoint"
	"repro/internal/winsync"
)

// This file implements federation-level checkpoint/restore. Every
// federation is checkpointable: cross-LP deliveries are always pending
// ops, so the model only has to schedule its own events as registered
// ops too. A snapshot is taken at a window barrier — between Run calls,
// when every message has been delivered and every LP engine sits
// exactly at the window clock — and holds the federation's window
// clock followed by the group's per-LP images (winsync). A restored
// federation resumes at the recorded window boundary and produces a
// run bit-identical to one that was never interrupted, for any worker
// count.

// secFed is the snapshot section holding the federation header.
const secFed = "parsim.fed"

// Clock returns the end of the last completed window — the time a
// snapshot taken now would resume from.
func (f *Federation) Clock() float64 { return f.clock }

// Checkpoint writes a federation snapshot to w. It must be called
// between Run calls (at a window barrier).
func (f *Federation) Checkpoint(w io.Writer) error {
	cw := checkpoint.NewWriter(w)
	var enc checkpoint.Enc
	enc.Int(f.LPs())
	enc.F64(f.Lookahead())
	enc.F64(f.clock)
	enc.U64(f.windows)
	if err := cw.Section(secFed, enc.Bytes()); err != nil {
		return err
	}
	if err := f.g.WriteSnapshot(cw); err != nil {
		return fmt.Errorf("parsim: %w", err)
	}
	return cw.Close()
}

// Restore overwrites the federation with a snapshot written by
// Checkpoint. The federation must have the same LP count and lookahead
// as the checkpointed one and the same ops registered (the model must
// be constructed first, then restored over); the worker count may
// differ — results are worker-count independent either way.
func (f *Federation) Restore(r io.Reader) error {
	snap, err := checkpoint.Read(r)
	if err != nil {
		return err
	}
	fedSec, ok := snap.Section(secFed)
	if !ok {
		return fmt.Errorf("parsim: snapshot has no %s section", secFed)
	}
	d := checkpoint.NewDec(fedSec)
	n := d.Int()
	lookahead := d.F64()
	clock := d.F64()
	windows := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if n != f.LPs() {
		return fmt.Errorf("parsim: snapshot has %d LPs, federation has %d", n, f.LPs())
	}
	if lookahead != f.Lookahead() {
		return fmt.Errorf("parsim: snapshot lookahead %v, federation lookahead %v", lookahead, f.Lookahead())
	}
	// n distinct images (the group refuses duplicates and IDs outside
	// the federation) are exactly this federation's LPs.
	if got := len(snap.All(winsync.SecLP)); got != n {
		return fmt.Errorf("parsim: snapshot has %d LP sections, want %d", got, n)
	}
	if err := f.g.Restore(snap); err != nil {
		return fmt.Errorf("parsim: %w", err)
	}
	f.clock = clock
	f.windows = windows
	return nil
}
