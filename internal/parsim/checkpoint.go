package parsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/checkpoint"
)

// This file implements federation-level checkpoint/restore. Every
// federation is checkpointable: cross-LP deliveries are always pending
// "parsim.msg" ops, so the model only has to schedule its own events as
// registered ops too. A snapshot is taken at a window barrier — between
// Run calls, when every outbox has been delivered and every LP engine
// sits exactly at the window clock — and contains the federation
// counters, each LP's embedded engine snapshot, and the model's
// Checkpointable state. A restored federation resumes at the recorded
// window boundary and produces a run bit-identical to one that was
// never interrupted, for any worker count.

// snapshot section names (federation level).
const (
	secFed   = "parsim.fed"
	secLP    = "parsim.lp"
	secModel = "parsim.model"
)

// SetModel attaches the model's serializable state to federation
// snapshots: Checkpoint calls MarshalState, Restore calls
// UnmarshalState. Engine snapshots carry the pending events; this
// carries everything else the model accumulates (counters, caches).
func (f *Federation) SetModel(m checkpoint.Checkpointable) { f.model = m }

// Clock returns the end of the last completed window — the time a
// snapshot taken now would resume from.
func (f *Federation) Clock() float64 { return f.clock }

// Checkpoint writes a federation snapshot to w. It must be called
// between Run calls (at a window barrier).
func (f *Federation) Checkpoint(w io.Writer) error {
	for _, lp := range f.lps {
		if len(lp.outbox) != 0 {
			return fmt.Errorf("parsim: Checkpoint with %d undelivered messages from LP %d (not at a window barrier)", len(lp.outbox), lp.Index)
		}
	}
	cw := checkpoint.NewWriter(w)
	var enc checkpoint.Enc
	enc.Int(len(f.lps))
	enc.F64(f.lookahead)
	enc.F64(f.clock)
	enc.U64(f.windows)
	enc.U64(f.IdleSkips())
	if err := cw.Section(secFed, enc.Bytes()); err != nil {
		return err
	}
	for _, lp := range f.lps {
		var engSnap bytes.Buffer
		if err := lp.E.Checkpoint(&engSnap); err != nil {
			return fmt.Errorf("parsim: LP %d: %w", lp.Index, err)
		}
		var lpEnc checkpoint.Enc
		lpEnc.Int(lp.Index)
		lpEnc.U64(lp.sent)
		lpEnc.U64(lp.recv)
		lpEnc.Raw(engSnap.Bytes())
		if err := cw.Section(secLP, lpEnc.Bytes()); err != nil {
			return err
		}
	}
	if f.model != nil {
		state, err := f.model.MarshalState()
		if err != nil {
			return fmt.Errorf("parsim: model state: %w", err)
		}
		if err := cw.Section(secModel, state); err != nil {
			return err
		}
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
	idleSkips := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(f.lps) {
		return fmt.Errorf("parsim: snapshot has %d LPs, federation has %d", n, len(f.lps))
	}
	if lookahead != f.lookahead {
		return fmt.Errorf("parsim: snapshot lookahead %v, federation lookahead %v", lookahead, f.lookahead)
	}
	lpSecs := snap.All(secLP)
	if len(lpSecs) != n {
		return fmt.Errorf("parsim: snapshot has %d LP sections, want %d", len(lpSecs), n)
	}
	modelState, hasModel := snap.Section(secModel)
	if hasModel && f.model == nil {
		return fmt.Errorf("parsim: snapshot carries model state but no model is attached (SetModel)")
	}
	if !hasModel && f.model != nil {
		return fmt.Errorf("parsim: snapshot has no model state but a model is attached")
	}

	for i, payload := range lpSecs {
		ld := checkpoint.NewDec(payload)
		idx := ld.Int()
		sent := ld.U64()
		recv := ld.U64()
		engSnap := ld.Raw()
		if err := ld.Err(); err != nil {
			return err
		}
		if idx != i {
			return fmt.Errorf("parsim: LP section %d has index %d", i, idx)
		}
		lp := f.lps[i]
		if err := lp.E.Restore(bytes.NewReader(engSnap)); err != nil {
			return fmt.Errorf("parsim: LP %d: %w", i, err)
		}
		lp.sent = sent
		lp.recv = recv
		lp.outbox = lp.outbox[:0]
	}
	if f.model != nil {
		if err := f.model.UnmarshalState(modelState); err != nil {
			return fmt.Errorf("parsim: model state: %w", err)
		}
	}
	f.clock = clock
	f.windows = windows
	clear(f.idle)
	f.idle[0].n = idleSkips
	return nil
}

// encodeMessage serializes a cross-LP message as the "parsim.msg" op
// argument: From, then the length-prefixed payload, in one allocation.
// The delivery time is not carried; it is the event's own timestamp.
func encodeMessage(m *Message) []byte {
	enc := checkpoint.NewEnc(make([]byte, 0, 2*binary.MaxVarintLen64+len(m.Data)))
	enc.Int(m.From)
	enc.Raw(m.Data)
	return enc.Bytes()
}

// decodeMessage parses an op argument. Data is a zero-copy view into
// arg, which the engine hands over and never reuses.
func decodeMessage(arg []byte) (Message, error) {
	d := checkpoint.NewDec(arg)
	m := Message{From: d.Int(), Data: d.RawView()}
	return m, d.Err()
}
