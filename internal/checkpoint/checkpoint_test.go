package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Section("alpha", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("beta", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("alpha", []byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := snap.Section("alpha"); !ok || string(got) != "hello" {
		t.Fatalf("alpha = %q, %v", got, ok)
	}
	if got, ok := snap.Section("beta"); !ok || len(got) != 0 {
		t.Fatalf("beta = %q, %v", got, ok)
	}
	all := snap.All("alpha")
	if len(all) != 2 || string(all[1]) != "world" {
		t.Fatalf("All(alpha) = %q", all)
	}
	if _, ok := snap.Section("gamma"); ok {
		t.Fatal("phantom section")
	}
	if len(snap.sections) != 3 {
		t.Fatalf("sections = %d", len(snap.sections))
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Section("s", bytes.Repeat([]byte{0xAB}, 100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one payload byte: CRC must catch it.
	bad := append([]byte(nil), good...)
	bad[len(Magic)+2+1+1+2+50] ^= 0x01
	if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corruption not caught: %v", err)
	}

	// Truncation must be caught too.
	if _, err := Read(bytes.NewReader(good[:len(good)-6])); err == nil {
		t.Fatal("truncation not caught")
	}

	// Wrong magic.
	wrong := append([]byte(nil), good...)
	wrong[0] = 'X'
	if _, err := Read(bytes.NewReader(wrong)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not caught: %v", err)
	}

	// Unsupported version.
	vbad := append([]byte(nil), good...)
	vbad[len(Magic)+1] = 99
	if _, err := Read(bytes.NewReader(vbad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version not caught: %v", err)
	}
}

func TestLyingSectionLength(t *testing.T) {
	// A section header that claims a near-limit payload over a
	// few-byte file must fail with "truncated" — and must not commit
	// the full claimed allocation up front (the read loop grows the
	// buffer only as bytes actually arrive, so this test would OOM a
	// constrained CI runner if that regressed).
	craft := func(plen uint64) []byte {
		data := []byte(Magic)
		data = append(data, 0, Version) // version uint16 BE
		data = append(data, 1, 'x')     // nameLen, name
		data = binary.AppendUvarint(data, plen)
		return append(data, []byte("short")...)
	}
	if _, err := Read(bytes.NewReader(craft(maxSectionLen))); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("lying length not caught: %v", err)
	}
	if _, err := Read(bytes.NewReader(craft(maxSectionLen + 1))); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("over-limit length not caught: %v", err)
	}
}

func TestSectionNameValidation(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Section("", nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := w.Section(strings.Repeat("x", 256), nil); err == nil {
		t.Fatal("overlong name accepted")
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U64(0)
	e.U64(1<<63 + 12345)
	e.Int(42)
	e.F64(math.Pi)
	e.F64(math.Inf(1))
	e.Bool(true)
	e.Bool(false)
	e.Str("")
	e.Str("héllo")
	e.Raw(nil)
	e.Raw([]byte{1, 2, 3})

	d := NewDec(e.Bytes())
	if v := d.U64(); v != 0 {
		t.Fatalf("u64 = %d", v)
	}
	if v := d.U64(); v != 1<<63+12345 {
		t.Fatalf("u64 = %d", v)
	}
	if v := d.Int(); v != 42 {
		t.Fatalf("int = %d", v)
	}
	if v := d.F64(); v != math.Pi {
		t.Fatalf("f64 = %v", v)
	}
	if v := d.F64(); !math.IsInf(v, 1) {
		t.Fatalf("f64 = %v", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools")
	}
	if v := d.Str(); v != "" {
		t.Fatalf("str = %q", v)
	}
	if v := d.Str(); v != "héllo" {
		t.Fatalf("str = %q", v)
	}
	if v := d.Raw(); v != nil {
		t.Fatalf("raw = %v", v)
	}
	if v := d.Raw(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("raw = %v", v)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d", d.Remaining())
	}
}

func TestDecStickyError(t *testing.T) {
	d := NewDec([]byte{0x01}) // one valid uvarint, then nothing
	if v := d.U64(); v != 1 {
		t.Fatalf("u64 = %d", v)
	}
	_ = d.F64() // truncated
	if d.Err() == nil {
		t.Fatal("no error for truncated float")
	}
	// Every later accessor stays zero-valued, no panic.
	if d.U64() != 0 || d.Str() != "" || d.Raw() != nil || d.Bool() {
		t.Fatal("sticky error not honored")
	}
}
