package distsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/checkpoint"
)

// This file implements the coordinator's durable control-plane
// journal — the piece that removes the last single point of failure.
//
// Cluster checkpoints (checkpoint.go) already make the *data plane*
// recoverable: worker state can be rolled back to a consistent
// barrier. But the *control plane* — which worker owns which LPs,
// the window sequence number, per-slot session epochs, the routed
// in-flight events — lived only in the coordinator's memory, so a
// coordinator crash killed the run even though every worker was
// healthy. The journal persists exactly that control state: an
// append-only file the coordinator fsyncs at every committed window
// barrier (plus migration commits, recovery resets, idle-window
// skips, and checkpoint writes). On restart the journal is replayed
// to rebuild the coordinator's view, surviving workers are re-adopted
// in place, and the run continues bit-identically — no rollback, no
// re-execution, as long as every worker survived the gap.
//
// File layout:
//
//	magic   "LSDSJRNL" (8 bytes)
//	version uint16 big-endian
//	record* { len uint32 BE, payload, crc32 uint32 BE (IEEE, payload) }
//
// Record payloads use the checkpoint Enc/Dec codec; the first field
// is the record kind. Genesis carries the run parameters and the whole
// control state (control.go); every later record is one transition of
// that state, holding its arguments rather than its result, and replay
// calls the transition the live run called. The file is created with
// the same atomic temp-and-rename discipline as cluster checkpoints,
// and every append is fsynced before the coordinator acknowledges the
// barrier it records — a journaled barrier is a durable barrier.
//
// A torn final record (crash mid-append) is expected and recoverable:
// loadJournal returns the state of the valid prefix along with
// ErrJournalTruncated, and the restarting coordinator truncates the
// tear before appending. A *complete* record that fails its CRC or
// does not parse means corruption, not a crash — that is
// ErrJournalCorrupt, and the coordinator refuses to resume from it.

// journalMagic identifies a control-plane journal file.
const journalMagic = "LSDSJRNL"

// journalVersion is the current journal format version. Version 1
// recorded each barrier's resulting state instead of its transition; it
// is refused, not converted.
const journalVersion = 2

// journalHeaderLen is the byte length of the file header.
const journalHeaderLen = len(journalMagic) + 2

// maxJournalRecord bounds a single record payload (64 MiB): a length
// prefix beyond it means a corrupt file, not a real record.
const maxJournalRecord = 64 << 20

// journalPrealloc is the chunk by which the journal file is extended
// ahead of the append offset. Appends then write into already-sized
// space, so the per-barrier datasync flushes data blocks without a
// file-size metadata update — the classic WAL preallocation trick,
// and most of the difference between fsync and fdatasync latency on
// the barrier path. Readers treat the zero-filled slack as a clean
// end of journal.
const journalPrealloc = 256 << 10

// Typed journal load failures. ErrJournalTruncated is survivable —
// the valid prefix is still returned and the caller truncates the
// torn tail; ErrJournalCorrupt is not.
var (
	ErrJournalCorrupt   = errors.New("distsim: corrupt journal")
	ErrJournalTruncated = errors.New("distsim: journal has a torn final record")
)

// journal record kinds.
type journalRecKind uint64

const (
	jGenesis    journalRecKind = iota + 1 // run parameters + control state: control.encode
	jBarrier                              // control.commit: barrier sequence + produced events
	jMigration                            // control.migrate: lp, from, to
	jCheckpoint                           // checkpoint of barrier N is durable at CheckpointPath
	jSkip                                 // control.skip: the next event time
	jReset                                // control.reset: the cut rolled back to
	jReseat                               // control.reseat: seat + registered LP set
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrJournalCorrupt, fmt.Sprintf(format, args...))
}

// allZero reports whether every byte of p is zero — the signature of
// a journal's preallocated, not-yet-written tail.
func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// journal is an open control-plane journal positioned for appends.
type journal struct {
	f       *os.File
	payload []byte // reused payload encode scratch
	rec     []byte // reused framed-record scratch
	records uint64 // records written or replayed
	bytes   uint64 // valid record bytes past the header
	off     int64  // next append offset (end of the valid prefix)
	alloc   int64  // preallocated file size
}

// createJournal atomically creates a fresh journal file at path (see
// writeFileAtomic) and opens it for appends.
func createJournal(path string) (*journal, error) {
	hdr := binary.BigEndian.AppendUint16([]byte(journalMagic), journalVersion)
	if err := writeFileAtomic(path, hdr); err != nil {
		return nil, fmt.Errorf("distsim: create journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("distsim: create journal: %w", err)
	}
	// Preallocate the first chunk so steady-state barrier syncs never
	// wait on a size update.
	if err := f.Truncate(journalPrealloc); err != nil {
		f.Close()
		return nil, fmt.Errorf("distsim: preallocate journal: %w", err)
	}
	return &journal{f: f, off: int64(journalHeaderLen), alloc: journalPrealloc}, nil
}

// openJournal reopens an existing journal for appending after a
// replay. A torn final record reported by loadJournal is truncated
// away first, so the next append extends the valid prefix; clean
// preallocated slack is simply written over in place.
func openJournal(path string, st *journalState) (*journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("distsim: open journal: %w", err)
	}
	if st.torn {
		if err := f.Truncate(st.validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("distsim: truncate torn journal tail: %w", err)
		}
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("distsim: open journal: %w", err)
	}
	return &journal{
		f:       f,
		records: st.records,
		bytes:   uint64(st.validLen) - uint64(journalHeaderLen),
		off:     st.validLen,
		alloc:   fi.Size(),
	}, nil
}

func (j *journal) close() error {
	if j == nil || j.f == nil {
		return nil
	}
	// Drop the preallocated slack so a cleanly finished journal is
	// dense on disk. Best-effort: leftover zeros parse as a clean tail
	// anyway.
	if j.alloc > j.off {
		_ = j.f.Truncate(j.off)
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// appendRecord frames, writes, and fsyncs one record. The record is
// durable when appendRecord returns nil — the window loop relies on
// this before sending the frames the record makes re-derivable.
func (j *journal) appendRecord(kind journalRecKind, build func(*checkpoint.Enc)) error {
	if j == nil {
		return nil
	}
	enc := checkpoint.NewEnc(j.payload)
	enc.U64(uint64(kind))
	build(&enc)
	j.payload = enc.Bytes()
	p := j.payload
	if len(p) > maxJournalRecord {
		return fmt.Errorf("distsim: journal record of %d bytes exceeds limit", len(p))
	}
	rec := j.rec[:0]
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(p)))
	rec = append(rec, p...)
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(p))
	j.rec = rec
	end := j.off + int64(len(rec))
	if end > j.alloc {
		next := max(j.alloc*2, end+journalPrealloc)
		if err := j.f.Truncate(next); err != nil {
			return fmt.Errorf("distsim: journal preallocate: %w", err)
		}
		j.alloc = next
	}
	if _, err := j.f.WriteAt(rec, j.off); err != nil {
		return fmt.Errorf("distsim: journal append: %w", err)
	}
	if err := datasync(j.f); err != nil {
		return fmt.Errorf("distsim: journal sync: %w", err)
	}
	j.off = end
	j.records++
	j.bytes += uint64(len(rec))
	return nil
}

// The record writers. A nil journal (JournalPath unset) accepts and
// drops every record, so the run journals unconditionally.

// genesis records the run parameters and the control state the run
// starts from. It is always the first record of a journal.
func (j *journal) genesis(c *control) error {
	return j.appendRecord(jGenesis, func(enc *checkpoint.Enc) {
		enc.F64(c.lookahead)
		enc.F64(c.horizon)
		enc.U64(c.seed)
		c.encode(enc, c.cut())
	})
}

// barrier records window seq's commit: the events it produced, in the
// order they were routed.
func (j *journal) barrier(seq uint64, produced []Event) error {
	return j.appendRecord(jBarrier, func(enc *checkpoint.Enc) {
		enc.U64(seq)
		encEvents(enc, produced)
	})
}

func (j *journal) migration(lp, from, to int) error {
	return j.appendRecord(jMigration, func(enc *checkpoint.Enc) {
		enc.Int(lp)
		enc.Int(from)
		enc.Int(to)
	})
}

// checkpointed records that the cluster checkpoint taken at barrier
// windows is durable at CheckpointPath: a restart refuses a file older
// than the last such record.
func (j *journal) checkpointed(windows uint64) error {
	return j.appendRecord(jCheckpoint, func(enc *checkpoint.Enc) { enc.U64(windows) })
}

func (j *journal) skip(next float64) error {
	return j.appendRecord(jSkip, func(enc *checkpoint.Enc) { enc.F64(next) })
}

func (j *journal) reset(cut []byte) error {
	return j.appendRecord(jReset, func(enc *checkpoint.Enc) { enc.Raw(cut) })
}

func (j *journal) reseat(wi int, ids []int) error {
	return j.appendRecord(jReseat, func(enc *checkpoint.Enc) {
		enc.Int(wi)
		encLPs(enc, ids)
	})
}

// journalState is what replaying a journal recovers: the control state
// at its tip, the last checkpoint ref, and where the valid prefix ends.
type journalState struct {
	ctl         *control // nil until the genesis record
	ckptWindows uint64   // barrier of the last checkpoint ref; 0 bounds nothing

	records  uint64
	torn     bool
	validLen int64 // file offset of the end of the valid prefix
}

// loadJournal reads and replays the journal at path. On a torn final
// record it returns the valid-prefix state alongside
// ErrJournalTruncated; any other non-nil error means the journal is
// unusable (missing file errors satisfy errors.Is(err, fs.ErrNotExist)).
func loadJournal(path string) (*journalState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseJournal(data)
}

func parseJournal(data []byte) (*journalState, error) {
	if len(data) < journalHeaderLen {
		return nil, corruptf("file of %d bytes is shorter than the header", len(data))
	}
	if string(data[:len(journalMagic)]) != journalMagic {
		return nil, corruptf("bad magic (not a journal)")
	}
	if v := binary.BigEndian.Uint16(data[len(journalMagic):]); v != journalVersion {
		return nil, corruptf("unsupported version %d (have %d)", v, journalVersion)
	}
	st := &journalState{}
	off := journalHeaderLen
	for off < len(data) {
		if len(data)-off < 4 {
			st.torn = true
			break
		}
		n := binary.BigEndian.Uint32(data[off:])
		if n == 0 {
			// No record has an empty payload: an all-zero tail is the
			// preallocated slack of a live journal (a clean end), and a
			// tear that never got past the length prefix looks the same.
			// Nonzero bytes inside that slack are corruption.
			if !allZero(data[off:]) {
				return nil, corruptf("record %d: zero length followed by nonzero bytes", st.records)
			}
			break
		}
		if n > maxJournalRecord {
			return nil, corruptf("record %d length %d exceeds limit", st.records, n)
		}
		if len(data)-off-4 < int(n)+4 {
			st.torn = true
			break
		}
		payload := data[off+4 : off+4+int(n)]
		stored := binary.BigEndian.Uint32(data[off+4+int(n):])
		if got := crc32.ChecksumIEEE(payload); got != stored {
			// A CRC failure on the final record-candidate — nothing but
			// preallocated zeros after its claimed end — is a torn
			// append, recoverable like any short tear. Mid-journal,
			// where valid data follows, it is corruption.
			if allZero(data[off+8+int(n):]) {
				st.torn = true
				break
			}
			return nil, corruptf("record %d CRC mismatch (stored %08x, computed %08x)", st.records, stored, got)
		}
		if err := st.apply(payload); err != nil {
			return nil, err
		}
		st.records++
		off += 8 + int(n)
	}
	st.validLen = int64(off)
	if st.torn {
		return st, fmt.Errorf("%w at offset %d", ErrJournalTruncated, off)
	}
	return st, nil
}

// apply replays one record: decode its arguments, call the transition.
func (st *journalState) apply(payload []byte) error {
	d := checkpoint.NewDec(payload)
	kind := journalRecKind(d.U64())
	if kind != jGenesis && st.ctl == nil {
		return corruptf("record %d (kind %d) precedes genesis", st.records, kind)
	}
	var err error
	switch kind {
	case jGenesis:
		if st.ctl != nil {
			return corruptf("record %d is a duplicate genesis", st.records)
		}
		lookahead, horizon, seed := d.F64(), d.F64(), d.U64()
		var c *control
		if c, err = decodeControl(d); err == nil {
			c.lookahead, c.horizon, c.seed = lookahead, horizon, seed
			st.ctl = c
		}
	case jBarrier:
		seq := d.U64()
		var produced []Event
		if produced, err = decEvents(d); err == nil && seq != st.ctl.windows+1 {
			err = fmt.Errorf("barrier %d follows barrier %d", seq, st.ctl.windows)
		}
		if err == nil {
			err = st.ctl.commit(produced)
		}
	case jMigration:
		lp, from, to := d.Int(), d.Int(), d.Int()
		if d.Err() == nil {
			err = st.ctl.migrate(lp, from, to)
		}
	case jCheckpoint:
		st.ckptWindows = d.U64()
	case jSkip:
		st.ctl.skip(d.F64())
	case jReset:
		if cut := d.RawView(); d.Err() == nil {
			err = st.ctl.reset(cut)
		}
	case jReseat:
		wi := d.Int()
		var ids []int
		if ids, err = decLPs(d); err == nil && (wi < 0 || wi >= len(st.ctl.slots)) {
			err = fmt.Errorf("reseat of unknown seat %d", wi)
		}
		if err == nil {
			st.ctl.reseat(wi, ids)
		}
	default:
		return corruptf("record %d has unknown kind %d", st.records, kind)
	}
	if err == nil {
		err = d.Err()
	}
	if err != nil {
		return corruptf("record %d: %v", st.records, err)
	}
	if d.Remaining() != 0 {
		return corruptf("record %d has %d trailing bytes", st.records, d.Remaining())
	}
	return nil
}

// JournalBench measures the per-barrier cost of the durable journal:
// one Cycle appends and fsyncs a representative barrier record, the
// exact work runWindows adds per window when JournalPath is set. It
// is exported for the experiments bench harness.
type JournalBench struct {
	j        *journal
	produced []Event
	win      uint64
}

// NewJournalBench creates a journal in dir and seeds it with a
// genesis record, leaving it positioned exactly as a live run's
// journal before its first barrier append.
func NewJournalBench(dir string) (*JournalBench, error) {
	j, err := createJournal(filepath.Join(dir, "bench.journal"))
	if err != nil {
		return nil, err
	}
	// A representative small-cluster barrier: 2 workers, a handful of
	// in-flight events with PHOLD-sized payloads.
	c := newControl(6, 1.0, 1e9, 42, 2)
	c.reseat(0, []int{0, 1, 2})
	c.reseat(1, []int{3, 4, 5})
	if err := c.index(); err != nil {
		panic(err)
	}
	produced := make([]Event, 16)
	for i := range produced {
		produced[i] = Event{
			Time: 1.5 + float64(i/2)*0.25,
			From: i % 6, To: (i + 3) % 6, Seq: uint64(i/2 + 1),
			Data: []byte{byte(i / 2), byte(i % 2), 0xAB, 0xCD},
		}
	}
	if err := j.genesis(c); err != nil {
		j.close()
		return nil, err
	}
	return &JournalBench{j: j, produced: produced}, nil
}

// Cycle appends one barrier record, fsync included.
func (b *JournalBench) Cycle() error {
	b.win++
	return b.j.barrier(b.win, b.produced)
}

// Bytes reports the journal bytes written so far.
func (b *JournalBench) Bytes() uint64 { return b.j.bytes }

// Close releases the underlying file.
func (b *JournalBench) Close() error { return b.j.close() }
