package distsim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/checkpoint"
)

// This file implements the coordinator's half of the fault-tolerant
// protocol. A *worker snapshot* is one worker's complete state, the
// winsync image of every LP it owns; workers produce it on a
// checkpoint frame and consume it on a restore frame
// (Worker.snapshot/restore).
//
// A *cluster checkpoint* is the coordinator's cut of the whole run,
// taken at a window barrier: the window clock, routing counters, every
// in-flight routed event, and one worker snapshot per worker slot.
// Because the cut is at a barrier — all workers quiescent at the same
// window clock, all cross-worker events either routed (in pending) or
// local (in a worker's inbox) — it is globally consistent by
// construction; no Chandy-Lamport marker machinery is needed.
//
// Recovery is rollback-all: when a worker dies, every surviving
// worker is restored from the last cluster checkpoint alongside the
// replacement, so the whole federation re-executes from the barrier
// and the resumed run is bit-identical to an uninterrupted one. A
// crash costs at most CheckpointEvery windows of re-execution.

// snapshot section names (cluster level; the per-LP sections inside a
// worker snapshot are winsync's). secControl replaced "distsim.cluster"
// when the cut became the control core's own encoding: a file without
// it predates that and is refused.
const (
	secControl = "distsim.control"
	secSlot    = "distsim.slot"
)

// errCheckpointMismatch marks a cluster checkpoint file that is intact
// but is not a cut this run may restore: another format, another
// cluster shape, or a barrier outside what the journal vouches for.
var errCheckpointMismatch = errors.New("distsim: cluster checkpoint does not fit this run")

// clusterCheckpoint is the coordinator's consistent cut of a run: the
// control cut (control.cut), the barrier it was taken at and one worker
// snapshot per seat.
type clusterCheckpoint struct {
	cut     []byte
	windows uint64
	snaps   [][]byte
}

// encode serializes the checkpoint for file persistence: the control
// state around the cut — whose shape and barrier a journal restart
// holds the file against — then the snapshots.
func (ck *clusterCheckpoint) encode(c *control) ([]byte, error) {
	var buf bytes.Buffer
	cw := checkpoint.NewWriter(&buf)
	var enc checkpoint.Enc
	c.encode(&enc, ck.cut)
	if err := cw.Section(secControl, enc.Bytes()); err != nil {
		return nil, err
	}
	for _, snap := range ck.snaps {
		if err := cw.Section(secSlot, snap); err != nil {
			return nil, err
		}
	}
	if err := cw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeClusterCheckpoint returns the control state at the file's cut
// (run parameters unset: the journal holds them) and the checkpoint.
func decodeClusterCheckpoint(data []byte) (*control, *clusterCheckpoint, error) {
	snap, err := checkpoint.Read(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	sec, ok := snap.Section(secControl)
	if !ok {
		return nil, nil, fmt.Errorf("%w: no %s section (written by an older build)", errCheckpointMismatch, secControl)
	}
	d := checkpoint.NewDec(sec)
	c, err := decodeControl(d)
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	if err != nil {
		return nil, nil, fmt.Errorf("distsim: checkpoint %s section: %v", secControl, err)
	}
	ck := &clusterCheckpoint{cut: c.cut(), windows: c.windows, snaps: snap.All(secSlot)}
	if len(ck.snaps) != len(c.slots) {
		return nil, nil, fmt.Errorf("distsim: checkpoint has %d slot sections, want %d", len(ck.snaps), len(c.slots))
	}
	return c, ck, nil
}

// save persists the checkpoint at path, whole or not at all.
func (ck *clusterCheckpoint) save(path string, c *control) error {
	data, err := ck.encode(c)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// writeFileAtomic makes data the content of path: written to a temp
// file in the same directory, then renamed over the target, so a crash
// mid-write never leaves a truncated file behind. The bytes reach the
// disk before the rename makes them the file of record: a crash-restart
// reads these files to decide where it stands and how far it can roll
// back, so a rename pointing at unsynced pages would let one power cut
// destroy both the run and its recovery point.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

func loadClusterCheckpoint(path string) (*control, *clusterCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return decodeClusterCheckpoint(data)
}
