// Package checkpoint defines the durable snapshot format shared by
// every engine layer of the framework, plus the interface through
// which an engine or a simulation model writes its state into one.
//
// The paper's taxonomy places execution mode and failure support on
// the same axis sheet: the MONARC-class simulators it surveys are
// distinguished by running long campaigns reliably at scale, yet none
// of them can survive a crash of the simulator itself — a failure
// loses the run. This package supplies the missing property. A
// snapshot file is a versioned, self-describing container of named
// sections; its owners (parsim.Federation, the distsim worker and
// coordinator) each write their own sections, and readers skip
// sections they do not understand, so the format can grow without
// breaking old snapshots. An engine's or a model's state is appended
// to the owner's Enc, inside a section, with no container of its own.
//
// Wire layout:
//
//	magic   "LSDSCKPT" (8 bytes)
//	version uint16 big-endian
//	section*  { nameLen uint8 >0, name, payloadLen uvarint, payload }
//	end       { nameLen uint8 == 0 }
//	crc32     IEEE, big-endian, over everything before it
//
// Integers inside section payloads are uvarint-encoded via Enc/Dec;
// floats are fixed 8-byte IEEE 754 bits. Everything is explicit — no
// reflection, no gob — so a snapshot written on one host restores
// bit-identically on any other. Dec accepts only what Enc writes
// (shortest uvarints, flags 0 and 1): a payload has one encoding.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic identifies a snapshot stream.
const Magic = "LSDSCKPT"

// Version is the current format version. Readers accept exactly the
// versions they know how to parse. Version 2 is the first whose
// federation and worker snapshots are winsync's per-LP images; what
// version 1 kept in their place cannot be read as one. Version 3 is
// the first whose LP images hold the engine's state inline, where
// version 2 nested a whole snapshot file of the engine's in each.
// Version 4 is the first whose LP images hold the table of pending
// deliveries after the engine, where version 3's engine kept each
// delivery's event encoded in its op argument.
const Version = 4

// maxSectionLen bounds a single section payload (1 GiB): a length
// beyond it means a corrupt or hostile stream, not a real snapshot.
const maxSectionLen = 1 << 30

// Checkpointable is implemented by state that must survive a
// checkpoint/restore cycle: the engine's (clock, random streams,
// pending events) and a simulation model's beside it (event counters,
// accumulators, open jobs — anything not reconstructible from the
// pending-event set alone). Both write into the encoder of whoever owns
// the file, so a snapshot nests no container.
//
// AppendState must be deterministic: equal states produce equal
// bytes, so snapshot comparison is meaningful. It writes nothing when
// it fails. RestoreState reads what AppendState wrote from d and must
// fully overwrite the receiver; it is called on a freshly constructed
// engine or model whose configuration already matches the
// checkpointed run.
type Checkpointable interface {
	AppendState(enc *Enc) error
	RestoreState(d *Dec) error
}

// Writer streams a snapshot to an io.Writer, section by section.
type Writer struct {
	w   io.Writer
	crc uint32
	err error
}

// NewWriter starts a snapshot on w by writing the header.
func NewWriter(w io.Writer) *Writer {
	sw := &Writer{w: w}
	var hdr [len(Magic) + 2]byte
	copy(hdr[:], Magic)
	binary.BigEndian.PutUint16(hdr[len(Magic):], Version)
	sw.write(hdr[:])
	return sw
}

func (sw *Writer) write(b []byte) {
	if sw.err != nil {
		return
	}
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, b)
	_, sw.err = sw.w.Write(b)
}

// Section appends one named section. Names are 1–255 bytes and may
// repeat: repeated names form an ordered list (used for per-LP
// sections).
func (sw *Writer) Section(name string, payload []byte) error {
	if len(name) == 0 || len(name) > 255 {
		return fmt.Errorf("checkpoint: section name %q out of range", name)
	}
	var hdr [1 + 255 + binary.MaxVarintLen64]byte
	hdr[0] = byte(len(name))
	n := 1 + copy(hdr[1:], name)
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	sw.write(hdr[:n])
	sw.write(payload)
	return sw.err
}

// Close writes the end marker and CRC trailer. The Writer must not be
// used afterwards.
func (sw *Writer) Close() error {
	sw.write([]byte{0})
	if sw.err != nil {
		return sw.err
	}
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], sw.crc)
	_, sw.err = sw.w.Write(tail[:])
	return sw.err
}

// section is one named chunk of a parsed snapshot.
type section struct {
	name string
	data []byte
}

// Snapshot is a fully parsed, CRC-verified snapshot.
type Snapshot struct {
	sections []section
}

// Read parses and verifies a snapshot from r.
func Read(r io.Reader) (*Snapshot, error) {
	br := &crcReader{r: r}
	hdr := make([]byte, len(Magic)+2)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("checkpoint: short header: %w", err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, errors.New("checkpoint: bad magic (not a snapshot)")
	}
	if v := binary.BigEndian.Uint16(hdr[len(Magic):]); v != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (have %d)", v, Version)
	}
	snap := &Snapshot{}
	var one [1]byte
	for {
		if _, err := io.ReadFull(br, one[:]); err != nil {
			return nil, fmt.Errorf("checkpoint: truncated section header: %w", err)
		}
		nameLen := int(one[0])
		if nameLen == 0 {
			break // end marker
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("checkpoint: truncated section name: %w", err)
		}
		plen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: truncated section length: %w", err)
		}
		if plen > maxSectionLen {
			return nil, fmt.Errorf("checkpoint: section %q length %d exceeds limit", name, plen)
		}
		// Grow the payload buffer as bytes actually arrive (doubling,
		// capped at the claimed length) instead of one up-front make: a
		// bit-flipped length byte in an otherwise tiny file must fail
		// with "truncated", not commit a near-gigabyte allocation before
		// the short read is discovered.
		payload := make([]byte, min(plen, 1<<20))
		filled := uint64(0)
		for {
			n, err := io.ReadFull(br, payload[filled:])
			filled += uint64(n)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: truncated section %q: %w", name, err)
			}
			if filled == plen {
				break
			}
			next := make([]byte, min(uint64(len(payload))*2, plen))
			copy(next, payload)
			payload = next
		}
		snap.sections = append(snap.sections, section{name: string(name), data: payload})
	}
	want := br.crc
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: missing CRC trailer: %w", err)
	}
	if got := binary.BigEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("checkpoint: CRC mismatch (stored %08x, computed %08x)", got, want)
	}
	return snap, nil
}

// Section returns the first section with the given name.
func (s *Snapshot) Section(name string) ([]byte, bool) {
	for _, sec := range s.sections {
		if sec.name == name {
			return sec.data, true
		}
	}
	return nil, false
}

// All returns every section with the given name, in write order.
func (s *Snapshot) All(name string) [][]byte {
	var out [][]byte
	for _, sec := range s.sections {
		if sec.name == name {
			out = append(out, sec.data)
		}
	}
	return out
}

// crcReader updates a CRC over everything read through it, one byte at
// a time when used as an io.ByteReader (for ReadUvarint).
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (cr *crcReader) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(cr.r, one[:]); err != nil {
		return 0, err
	}
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, one[:])
	return one[0], nil
}

// Enc builds a section payload: uvarint integers, fixed-width floats,
// length-prefixed strings and byte slices. The zero Enc is ready to
// use.
type Enc struct {
	b []byte
}

// NewEnc returns an encoder that appends into buf's storage starting
// at length zero, so a hot path can reuse one buffer across payloads
// instead of growing a fresh one each time. The caller must treat buf
// as owned by the encoder until Bytes is consumed.
func NewEnc(buf []byte) Enc { return Enc{b: buf[:0]} }

// U64 appends a uvarint-encoded integer.
func (e *Enc) U64(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}

// Int appends a non-negative int as a uvarint.
func (e *Enc) Int(v int) {
	if v < 0 {
		panic(fmt.Sprintf("checkpoint: Enc.Int(%d)", v))
	}
	e.U64(uint64(v))
}

// F64 appends a float as its fixed 8-byte IEEE 754 representation.
func (e *Enc) F64(v float64) {
	e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(v))
}

// Bool appends a single flag byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Raw appends a length-prefixed byte slice (nil encodes as length 0).
func (e *Enc) Raw(b []byte) {
	e.U64(uint64(len(b)))
	e.b = append(e.b, b...)
}

// Bytes returns the accumulated payload.
func (e *Enc) Bytes() []byte { return e.b }

// Dec parses a section payload written by Enc. Errors are sticky:
// after the first decode failure every accessor returns a zero value
// and Err reports the failure, so call sites stay linear.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: %s at offset %d", what, d.off)
	}
}

// U64 reads a uvarint.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || n > 1 && d.b[d.off+n-1] == 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a uvarint as an int.
func (d *Dec) Int() int { return int(d.U64()) }

// F64 reads a fixed 8-byte float.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Bool reads a flag byte.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) || d.b[d.off] > 1 {
		d.fail("truncated bool or flag byte above 1")
		return false
	}
	d.off++
	return d.b[d.off-1] == 1
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail("truncated string")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Raw reads a length-prefixed byte slice. The returned slice is a
// copy, safe to retain.
func (d *Dec) Raw() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail("truncated bytes")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:d.off+int(n)])
	d.off += int(n)
	return out
}

// RawView reads a length-prefixed byte slice without copying: the
// returned slice aliases the decoder's payload and is only valid until
// the payload's backing buffer is reused. Hot decode paths use it to
// stay allocation-free; anything that retains the bytes must use Raw
// or copy explicitly.
func (d *Dec) RawView() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail("truncated bytes")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := d.b[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return out
}

// Err reports the first decode failure, nil when the payload parsed.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread payload bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }
