package distsim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/winsync"
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
// worker snapshot are winsync's).
const (
	secCluster = "distsim.cluster"
	secSlot    = "distsim.slot"
)

// encEventInto and decEventFrom are the kernel's event codec under the
// names the wire, journal and cluster-checkpoint codecs call it by.
func encEventInto(enc *checkpoint.Enc, ev *Event) { winsync.AppendEvent(enc, ev) }

// decEventFrom decodes one event. Data is a zero-copy view into the
// decoder's payload (see checkpoint.Dec.RawView): snapshot buffers are
// owned and never reused, and the frame receive path consumes or
// copies events before its read buffer turns over.
func decEventFrom(d *checkpoint.Dec) Event { return winsync.DecodeEvent(d) }

// clusterCheckpoint is the coordinator's consistent cut of a run.
type clusterCheckpoint struct {
	Clock        float64
	Windows      uint64
	EventsRouted uint64
	Keys         []string  // per slot: canonical LP-set key (see lpKey)
	LPSets       [][]int   // per slot: owned LP ids (the live assignment at the cut)
	Snapshots    [][]byte  // per slot: worker snapshot
	Pending      [][]Event // per slot: routed, not-yet-delivered events
}

// cloneLPSets deep-copies a per-slot LP assignment, so checkpointed
// assignments cannot alias the live one a later migration mutates.
func cloneLPSets(sets [][]int) [][]int {
	out := make([][]int, len(sets))
	for i, ids := range sets {
		out[i] = slices.Clone(ids)
	}
	return out
}

// lpKey is the canonical identity of a worker slot: its sorted LP-id
// list. A replacement worker must register exactly this set.
func lpKey(ids []int) string { return fmt.Sprint(ids) }

// encode serializes the cluster checkpoint for file persistence.
func (ck *clusterCheckpoint) encode() ([]byte, error) {
	var buf bytes.Buffer
	cw := checkpoint.NewWriter(&buf)
	var enc checkpoint.Enc
	enc.Int(len(ck.Keys))
	enc.F64(ck.Clock)
	enc.U64(ck.Windows)
	enc.U64(ck.EventsRouted)
	if err := cw.Section(secCluster, enc.Bytes()); err != nil {
		return nil, err
	}
	for i := range ck.Keys {
		var se checkpoint.Enc
		se.Str(ck.Keys[i])
		se.Raw(ck.Snapshots[i])
		se.Int(len(ck.Pending[i]))
		for j := range ck.Pending[i] {
			encEventInto(&se, &ck.Pending[i][j])
		}
		// The slot's LP assignment at the cut: a resume after live
		// migration must restart with the migrated layout, not the
		// registration-time one.
		se.Int(len(ck.LPSets[i]))
		for _, id := range ck.LPSets[i] {
			se.Int(id)
		}
		if err := cw.Section(secSlot, se.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := cw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeClusterCheckpoint(data []byte) (*clusterCheckpoint, error) {
	snap, err := checkpoint.Read(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	cSec, ok := snap.Section(secCluster)
	if !ok {
		return nil, fmt.Errorf("distsim: checkpoint has no %s section", secCluster)
	}
	d := checkpoint.NewDec(cSec)
	n := d.Int()
	ck := &clusterCheckpoint{
		Clock:        d.F64(),
		Windows:      d.U64(),
		EventsRouted: d.U64(),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	slots := snap.All(secSlot)
	if len(slots) != n {
		return nil, fmt.Errorf("distsim: checkpoint has %d slot sections, want %d", len(slots), n)
	}
	for _, payload := range slots {
		sd := checkpoint.NewDec(payload)
		ck.Keys = append(ck.Keys, sd.Str())
		ck.Snapshots = append(ck.Snapshots, sd.Raw())
		// Bound every count against the bytes actually present before
		// allocating: each element costs at least one byte, so a corrupt
		// (bit-flipped) count larger than the remaining payload can be
		// rejected without a giant make.
		np := sd.Int()
		if np < 0 || np > sd.Remaining() {
			return nil, fmt.Errorf("distsim: checkpoint slot pending count %d exceeds payload", np)
		}
		evs := make([]Event, 0, np)
		for j := 0; j < np; j++ {
			evs = append(evs, decEventFrom(sd))
		}
		if err := sd.Err(); err != nil {
			return nil, err
		}
		ck.Pending = append(ck.Pending, evs)
		ni := sd.Int()
		if ni < 0 || ni > sd.Remaining() {
			return nil, fmt.Errorf("distsim: checkpoint slot LP count %d exceeds payload", ni)
		}
		ids := make([]int, 0, ni)
		for j := 0; j < ni; j++ {
			ids = append(ids, sd.Int())
		}
		if err := sd.Err(); err != nil {
			return nil, err
		}
		ck.LPSets = append(ck.LPSets, ids)
	}
	return ck, nil
}

// save persists the checkpoint atomically: write to a temp file in the
// same directory, then rename over the target, so a crash mid-write
// never leaves a truncated checkpoint behind.
func (ck *clusterCheckpoint) save(path string) error {
	data, err := ck.encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	// Reach the disk before the rename makes the file the checkpoint of
	// record: a crash-restart reads this file to decide how far it can
	// roll back, so a rename pointing at unsynced pages would let one
	// power cut destroy both the run and its recovery point.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func loadClusterCheckpoint(path string) (*clusterCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeClusterCheckpoint(data)
}

// copyPending deep-copies the per-slot pending event lists — payloads
// included, because live routed events carry Data views into the
// coordinator's reusable arena — so that the live routing state and
// the checkpointed state cannot alias.
func copyPending(pending [][]Event) [][]Event {
	out := make([][]Event, len(pending))
	for i, evs := range pending {
		out[i] = append([]Event(nil), evs...)
		for j := range out[i] {
			if len(out[i][j].Data) > 0 {
				out[i][j].Data = append([]byte(nil), out[i][j].Data...)
			}
		}
	}
	return out
}
