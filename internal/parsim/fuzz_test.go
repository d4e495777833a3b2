package parsim

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeMessage feeds arbitrary bytes to the "parsim.msg" op
// argument decoder: it must return a message or an error, never panic.
// Whatever decodes must survive encode → decode unchanged, and every
// strict prefix of an encoding must be refused as truncated.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range []Message{
		{From: 0},
		{From: 63, Data: []byte{1, 2, 3}},
		{From: 1 << 40, Data: bytes.Repeat([]byte{0xAB}, 300)},
	} {
		f.Add(encodeMessage(&m))
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMessage(data)
		if err != nil || m.From < 0 {
			// A sender index past the int range cannot be re-encoded;
			// no federation produces one.
			return
		}
		enc := encodeMessage(&m)
		back, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if back.From != m.From || !bytes.Equal(back.Data, m.Data) {
			t.Fatalf("round trip changed the message: %+v -> %+v", m, back)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeMessage(enc[:cut]); err == nil {
				t.Fatalf("truncation of %x to %d bytes accepted", enc, cut)
			}
		}
	})
}

// TestCorruptMessageOpPanics pins the failure mode of a damaged
// pending delivery: the op refuses it loudly instead of handing the
// model a half-decoded message.
func TestCorruptMessageOpPanics(t *testing.T) {
	f := NewFederation(1, 1, 1, 0)
	lp := f.LP(0)
	lp.OnMessage = func(Message) { t.Error("handler ran on a corrupt message") }
	lp.E.AtOp(0.5, lp.msgOp, []byte{0x80}) // a uvarint cut short
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "corrupt message op argument") {
			t.Fatalf("panic %q, want the corrupt-argument message", msg)
		}
	}()
	f.Run(1)
}
