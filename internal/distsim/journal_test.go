package distsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

// journaled drives a control and its journal together the way the
// coordinator does: call the transition, then append its record.
type journaled struct {
	t testing.TB
	c *control
	j *journal
}

func (l journaled) must(err error) {
	l.t.Helper()
	if err != nil {
		l.t.Fatal(err)
	}
}

func (l journaled) commit(produced []Event) {
	l.t.Helper()
	l.must(l.c.commit(produced))
	l.must(l.j.barrier(l.c.windows, produced))
}

func (l journaled) skip(next float64) {
	l.t.Helper()
	if l.c.skip(next) > 0 {
		l.must(l.j.skip(next))
	}
}

func (l journaled) migrate(lp, from, to int) {
	l.t.Helper()
	l.must(l.c.migrate(lp, from, to))
	l.must(l.j.migration(lp, from, to))
}

func (l journaled) reseat(wi int, ids []int) {
	l.t.Helper()
	l.c.reseat(wi, ids)
	l.must(l.j.reseat(wi, ids))
}

func (l journaled) reset(cut []byte) {
	l.t.Helper()
	l.must(l.c.reset(cut))
	l.must(l.j.reset(cut))
}

// sameControl reports whether two control states are equal: run
// parameters, owner, and — through the codec, which covers every other
// field — seats and cut.
func sameControl(a, b *control) bool {
	var ea, eb checkpoint.Enc
	a.encode(&ea, a.cut())
	b.encode(&eb, b.cut())
	return a.lookahead == b.lookahead && a.horizon == b.horizon && a.seed == b.seed &&
		slices.Equal(a.owner, b.owner) && bytes.Equal(ea.Bytes(), eb.Bytes())
}

// testControl is a registered two-worker run over four LPs with one
// event already pending; seat 1 is on its second incarnation.
func testControl(t testing.TB) *control {
	t.Helper()
	c := newControl(4, 1.0, 64, 7, 2)
	c.reseat(0, []int{0, 1})
	c.reseat(1, []int{2, 3})
	c.reseat(1, []int{2, 3})
	if err := c.index(); err != nil {
		t.Fatal(err)
	}
	c.slots[0].pending = []Event{{Time: 1.5, From: 2, To: 0, Seq: 3, Data: []byte{1, 2}}}
	return c
}

// buildJournal writes a representative journal through the real
// append API — genesis, barriers, a migration, a checkpoint mark, a
// skip — and returns its path, its raw bytes and the live control
// state the records were written from.
func buildJournal(t testing.TB) (string, []byte, *control) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := createJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	l := journaled{t, testControl(t), j}
	l.must(j.genesis(l.c))
	produced := []Event{
		{Time: 2.5, From: 0, To: 2, Seq: 4},
		{Time: 2.25, From: 3, To: 1, Seq: 9, Data: []byte{0xFE}},
	}
	l.commit(produced)
	l.migrate(1, 0, 1)
	l.must(j.checkpointed(1))
	l.skip(3.5)
	l.commit(produced)
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data, l.c
}

func TestJournalReplay(t *testing.T) {
	_, data, live := buildJournal(t)
	st, err := parseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.ctl == nil || st.torn {
		t.Fatalf("genesis=%v torn=%v", st.ctl != nil, st.torn)
	}
	c := st.ctl
	if len(c.slots) != 2 || c.nLPs != 4 || c.lookahead != 1.0 || c.horizon != 64 || c.seed != 7 {
		t.Fatalf("run params = %+v", c)
	}
	if st.records != 6 || st.validLen != int64(len(data)) {
		t.Fatalf("records=%d validLen=%d len=%d", st.records, st.validLen, len(data))
	}
	// Barrier 1 ends at 1, the skip jumps the windows ending at 2 and 3
	// (3.5 lies past both), barrier 2 ends at 4.
	if c.windows != 2 || c.skipped != 2 || c.routed != 4 || c.clock != 4.0 {
		t.Fatalf("counters = windows %d skipped %d routed %d clock %v",
			c.windows, c.skipped, c.routed, c.clock)
	}
	if st.ckptWindows != 1 {
		t.Fatalf("checkpoint ref = %d", st.ckptWindows)
	}
	// The migration moved LP 1 from slot 0 to slot 1.
	if !slices.Equal(c.slots[0].lps, []int{0}) || !slices.Equal(c.slots[1].lps, []int{1, 2, 3}) {
		t.Fatalf("slots own %v and %v", c.slots[0].lps, c.slots[1].lps)
	}
	if !slices.Equal(c.owner, []int{0, 1, 1, 1}) {
		t.Fatalf("owner = %v", c.owner)
	}
	if c.slots[0].epoch != 1 || c.slots[1].epoch != 2 || c.slots[1].regKey != lpKey([]int{2, 3}) {
		t.Fatalf("seats = %+v", c.slots)
	}
	// The final barrier's events are what is pending, both on slot 1 now.
	if len(c.slots[0].pending) != 0 || len(c.slots[1].pending) != 2 ||
		c.slots[1].pending[0].Seq != 4 || c.slots[1].pending[1].Data[0] != 0xFE {
		t.Fatalf("pending = %+v / %+v", c.slots[0].pending, c.slots[1].pending)
	}
	if !sameControl(c, live) {
		t.Fatalf("replayed state differs from the live one:\nreplay %+v\nlive   %+v", c, live)
	}
}

// recordBounds returns the set of valid file offsets a journal can be
// truncated to without tearing a record.
func recordBounds(data []byte) map[int]bool {
	bounds := map[int]bool{journalHeaderLen: true}
	off := journalHeaderLen
	for off < len(data) {
		n := int(binary.BigEndian.Uint32(data[off:]))
		off += 8 + n
		bounds[off] = true
	}
	return bounds
}

// TestJournalTruncation cuts the journal at every byte offset: a cut
// inside the header is corruption, a cut at a record boundary is a
// clean (shorter) journal, and a cut inside a record is a torn tail
// whose reported valid prefix must itself parse cleanly.
func TestJournalTruncation(t *testing.T) {
	_, data, _ := buildJournal(t)
	bounds := recordBounds(data)
	for cut := 0; cut < len(data); cut++ {
		st, err := parseJournal(data[:cut])
		switch {
		case cut < journalHeaderLen:
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("cut %d: want corrupt, got %v", cut, err)
			}
		case bounds[cut]:
			if err != nil {
				t.Fatalf("cut %d at record boundary: %v", cut, err)
			}
		default:
			if !errors.Is(err, ErrJournalTruncated) {
				t.Fatalf("cut %d: want truncated, got %v", cut, err)
			}
			if st == nil || st.torn == false {
				t.Fatalf("cut %d: torn state not returned", cut)
			}
			if st.validLen > int64(cut) || !bounds[int(st.validLen)] {
				t.Fatalf("cut %d: validLen %d is not a record boundary", cut, st.validLen)
			}
			if _, err := parseJournal(data[:st.validLen]); err != nil {
				t.Fatalf("cut %d: valid prefix does not parse: %v", cut, err)
			}
		}
	}
}

// TestJournalBitFlip flips every bit of the journal one at a time:
// each flip must surface as a typed load error — never a panic, never
// a silently accepted state.
func TestJournalBitFlip(t *testing.T) {
	_, data, _ := buildJournal(t)
	flipped := make([]byte, len(data))
	for pos := 0; pos < len(data); pos++ {
		for bit := 0; bit < 8; bit++ {
			copy(flipped, data)
			flipped[pos] ^= 1 << bit
			_, err := parseJournal(flipped)
			if err == nil {
				t.Fatalf("flip byte %d bit %d: accepted", pos, bit)
			}
			if !errors.Is(err, ErrJournalCorrupt) && !errors.Is(err, ErrJournalTruncated) {
				t.Fatalf("flip byte %d bit %d: untyped error %v", pos, bit, err)
			}
		}
	}
}

func journalHeader() []byte {
	hdr := []byte(journalMagic)
	return binary.BigEndian.AppendUint16(hdr, journalVersion)
}

func frameJournalRec(payload []byte) []byte {
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	rec = append(rec, payload...)
	return binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
}

// TestJournalCrafted covers corruptions a truncation or bit flip
// cannot reach: structurally valid records (good CRC) whose content
// violates the protocol.
func TestJournalCrafted(t *testing.T) {
	_, data, _ := buildJournal(t)
	bounds := recordBounds(data)
	genesisEnd := 0
	for off := range bounds {
		if off > journalHeaderLen && (genesisEnd == 0 || off < genesisEnd) {
			genesisEnd = off
		}
	}
	genesisRec := data[journalHeaderLen:genesisEnd]

	kindOnly := func(kind journalRecKind) []byte {
		var enc checkpoint.Enc
		enc.U64(uint64(kind))
		return frameJournalRec(enc.Bytes())
	}
	badGenesis := func(nWorkers, nLPs int) []byte {
		var enc checkpoint.Enc
		enc.U64(uint64(jGenesis))
		enc.F64(1)
		enc.F64(64)
		enc.U64(7)
		enc.Int(nWorkers)
		enc.Int(nLPs)
		return frameJournalRec(enc.Bytes())
	}
	barrierRec := func(seq uint64, produced ...Event) []byte {
		var enc checkpoint.Enc
		enc.U64(uint64(jBarrier))
		enc.U64(seq)
		encEvents(&enc, produced)
		return frameJournalRec(enc.Bytes())
	}
	var reseatEnc checkpoint.Enc
	reseatEnc.U64(uint64(jReseat))
	reseatEnc.Int(2)
	encLPs(&reseatEnc, []int{0})
	reseatRec := frameJournalRec(reseatEnc.Bytes())
	giantLen := binary.BigEndian.AppendUint32(nil, maxJournalRecord+1)
	var trailEnc checkpoint.Enc
	trailEnc.U64(uint64(jCheckpoint))
	trailEnc.U64(1)
	trailEnc.U64(0xAA) // one uvarint past the record's last field
	trailingRec := frameJournalRec(trailEnc.Bytes())

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"barrier-before-genesis", append(journalHeader(), kindOnly(jBarrier)...), "precedes genesis"},
		{"duplicate-genesis", append(append(journalHeader(), genesisRec...), genesisRec...), "duplicate genesis"},
		{"unknown-kind", append(append(journalHeader(), genesisRec...), kindOnly(99)...), "unknown kind"},
		{"giant-record-length", append(append(journalHeader(), genesisRec...), giantLen...), "exceeds limit"},
		{"zero-worker-genesis", append(journalHeader(), badGenesis(0, 4)...), "declares"},
		{"trailing-garbage-record", append(append(journalHeader(), genesisRec...), trailingRec...), "trailing"},
		{"barrier-out-of-sequence", append(append(journalHeader(), genesisRec...), barrierRec(3)...), "follows barrier 0"},
		{"barrier-for-unknown-lp", append(append(journalHeader(), genesisRec...), barrierRec(1, Event{To: 4})...), "unknown LP 4"},
		{"reseat-unknown-seat", append(append(journalHeader(), genesisRec...), reseatRec...), "unknown seat"},
		{"version-1", append(binary.BigEndian.AppendUint16([]byte(journalMagic), 1), genesisRec...), "unsupported version 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseJournal(tc.data)
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("want ErrJournalCorrupt, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestJournalReopenAfterTear simulates a crash mid-append: a torn tail
// must load as the valid prefix, openJournal must truncate the tear,
// and subsequent appends must extend a journal that then loads clean.
func TestJournalReopenAfterTear(t *testing.T) {
	path, data, live := buildJournal(t)
	torn := append(append([]byte(nil), data...), 0, 0, 0, 50, 1, 2, 3) // half a record
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := loadJournal(path)
	if !errors.Is(err, ErrJournalTruncated) {
		t.Fatalf("want truncated, got %v", err)
	}
	if st.records != 6 || st.validLen != int64(len(data)) {
		t.Fatalf("prefix records=%d validLen=%d", st.records, st.validLen)
	}
	j, err := openJournal(path, st)
	if err != nil {
		t.Fatal(err)
	}
	l := journaled{t, st.ctl, j}
	l.commit(nil)
	live.commit(nil)
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	st2, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.records != 7 || st2.ctl.windows != 3 || st2.ctl.clock != 5.0 || !sameControl(st2.ctl, live) {
		t.Fatalf("after reopen: records=%d windows=%d clock=%v", st2.records, st2.ctl.windows, st2.ctl.clock)
	}
}

// TestClusterCheckpointCorruption drives the same discipline through
// the cluster checkpoint decoder: every truncation and every bit flip
// must error, and a structurally valid file whose counts lie about
// the payload must be rejected before any giant allocation.
func TestClusterCheckpointCorruption(t *testing.T) {
	c := testControl(t)
	c.clock, c.windows, c.skipped, c.routed = 2, 3, 1, 7
	ck := &clusterCheckpoint{cut: c.cut(), snaps: [][]byte{[]byte("snapshot-a"), []byte("snapshot-b")}}
	data, err := ck.encode(c)
	if err != nil {
		t.Fatal(err)
	}
	back, backCk, err := decodeClusterCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	back.lookahead, back.horizon, back.seed = c.lookahead, c.horizon, c.seed
	if !sameControl(back, c) || !bytes.Equal(backCk.cut, ck.cut) || string(backCk.snaps[1]) != "snapshot-b" {
		t.Fatalf("round trip = %+v, %+v", back, backCk)
	}

	for cut := 0; cut < len(data); cut++ {
		if _, _, err := decodeClusterCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	flipped := make([]byte, len(data))
	for pos := 0; pos < len(data); pos++ {
		for bit := 0; bit < 8; bit++ {
			copy(flipped, data)
			flipped[pos] ^= 1 << bit
			if _, _, err := decodeClusterCheckpoint(flipped); err == nil {
				t.Fatalf("flip byte %d bit %d accepted", pos, bit)
			}
		}
	}

	// Valid container, lying counts: the CRC passes, so only the
	// decoder's own bounds stand between a flipped count and a giant
	// allocation.
	craft := func(section string, build func(cut *checkpoint.Enc)) []byte {
		var buf bytes.Buffer
		cw := checkpoint.NewWriter(&buf)
		var cut checkpoint.Enc
		cut.F64(2)
		cut.U64(3)
		cut.U64(1)
		cut.U64(7)
		build(&cut)
		var ce checkpoint.Enc
		ce.Int(1) // one worker
		ce.Int(2) // two LPs
		ce.Int(1)
		ce.Str("[0 1]")
		ce.Raw(cut.Bytes())
		if err := cw.Section(section, ce.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := cw.Section(secSlot, []byte("snap")); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	honest := func(cut *checkpoint.Enc) {
		encLPs(cut, []int{0, 1})
		cut.Int(0) // no pending
	}
	if _, _, err := decodeClusterCheckpoint(craft(secControl, honest)); err != nil {
		t.Fatalf("crafted honest checkpoint: %v", err)
	}
	lyingLPs := craft(secControl, func(cut *checkpoint.Enc) {
		cut.Int(1 << 40) // LP count far beyond the payload
	})
	if _, _, err := decodeClusterCheckpoint(lyingLPs); err == nil || !strings.Contains(err.Error(), "LP count") {
		t.Fatalf("lying LP count: %v", err)
	}
	lyingPending := craft(secControl, func(cut *checkpoint.Enc) {
		encLPs(cut, []int{0, 1})
		cut.Int(1 << 40) // pending count far beyond the payload
	})
	if _, _, err := decodeClusterCheckpoint(lyingPending); err == nil || !strings.Contains(err.Error(), "pending count") {
		t.Fatalf("lying pending count: %v", err)
	}
	// The cut used to sit in a section named distsim.cluster, laid out
	// differently: such a file is refused by name, not decoded.
	if _, _, err := decodeClusterCheckpoint(craft("distsim.cluster", honest)); !errors.Is(err, errCheckpointMismatch) {
		t.Fatalf("older checkpoint format: %v", err)
	}
}
