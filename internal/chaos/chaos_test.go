package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// pipeConn returns a connected pair with the client side wrapped by
// the injector, plus a cleanup.
func pipeConn(t *testing.T, in *Injector) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return in.Conn(a), b
}

// readN reads exactly n bytes from c with a deadline.
func readN(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read %d bytes: %v", n, err)
	}
	return buf
}

// faultPlan replays the decision sequence an injector makes for a
// message stream, for determinism comparison.
func faultPlan(cfg Config, msgs, msgLen int) []verdict {
	in := New(cfg)
	out := make([]verdict, msgs)
	for i := range out {
		out[i] = in.decide(msgLen)
	}
	return out
}

func TestDeterministicDecisions(t *testing.T) {
	cfg := Config{Seed: 99, Drop: 0.1, Dup: 0.05, Reorder: 0.05, Corrupt: 0.05, Reset: 0.01}
	a := faultPlan(cfg, 500, 64)
	b := faultPlan(cfg, 500, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d: %+v vs %+v — same seed, different faults", i, a[i], b[i])
		}
	}
	// ...and a different seed must actually shuffle them.
	cfg.Seed = 100
	c := faultPlan(cfg, 500, 64)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical fault plans")
	}
}

func TestDisabledClassesBurnNoDraws(t *testing.T) {
	// With only Drop enabled, enabling Dup later must not change which
	// messages drop — per-class gating isolates the draw streams... it
	// does not (single stream), but disabled classes burn nothing, so
	// a drop-only plan is stable no matter what other classes WOULD
	// have drawn. Pin the weaker, true property: drop-only plans are a
	// pure function of (seed, message index).
	drops := func(cfg Config) []bool {
		in := New(cfg)
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.decide(32).drop
		}
		return out
	}
	a := drops(Config{Seed: 7, Drop: 0.2})
	b := drops(Config{Seed: 7, Drop: 0.2, Delay: time.Millisecond})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d: fixed delay changed the drop plan", i)
		}
	}
}

func TestDropAndPassThrough(t *testing.T) {
	// Drop=1: every write vanishes but reports success.
	in := New(Config{Seed: 1, Drop: 1})
	cw, _ := pipeConn(t, in)
	n, err := cw.Write([]byte("gone"))
	if n != 4 || err != nil {
		t.Fatalf("dropped write returned (%d, %v), want (4, nil)", n, err)
	}

	// Drop=0: bytes arrive intact.
	in2 := New(Config{Seed: 1})
	cw2, cr2 := pipeConn(t, in2)
	go func() { _, _ = cw2.Write([]byte("hello")) }()
	if got := readN(t, cr2, 5); string(got) != "hello" {
		t.Fatalf("clean write arrived as %q", got)
	}
	if s := in2.Stats(); s.Messages != 1 || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCorruptFlipsExactlyOneByte(t *testing.T) {
	in := New(Config{Seed: 3, Corrupt: 1})
	cw, cr := pipeConn(t, in)
	msg := []byte("abcdefgh")
	go func() { _, _ = cw.Write(msg) }()
	got := readN(t, cr, len(msg))
	diff := 0
	for i := range msg {
		if got[i] != msg[i] {
			diff++
			if got[i] != msg[i]^0xff {
				t.Fatalf("byte %d corrupted to %02x, want %02x", i, got[i], msg[i]^0xff)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	if string(msg) != "abcdefgh" {
		t.Fatal("caller's buffer was mutated")
	}
}

func TestDuplicateWritesTwice(t *testing.T) {
	in := New(Config{Seed: 4, Dup: 1})
	cw, cr := pipeConn(t, in)
	go func() { _, _ = cw.Write([]byte("xy")) }()
	if got := readN(t, cr, 4); string(got) != "xyxy" {
		t.Fatalf("duplicated write arrived as %q, want xyxy", got)
	}
}

func TestReorderSwapsAdjacentMessages(t *testing.T) {
	// Reorder=1 makes every message held; each next write flushes the
	// previous hold first, so AB arrives as... A held, B written → the
	// hold rule emits the older when a second hold arrives. Script it
	// precisely: with Reorder=1, write A (held), write B (B replaces:
	// A flushed first, B held), Close flushes B → wire order A, B??
	// No: on B's write the injector holds B and flushes A because only
	// one message may be held. The swap shows with three writes:
	// A(held) B(A out, B held) C(B out, C held) close(C out) → ABC.
	// A genuine swap needs Reorder to hit one message only, so script
	// via seed: find a seed where exactly message 0 reorders.
	cfg := Config{Seed: 0, Reorder: 0.5}
	var seed uint64
	for s := uint64(0); s < 1000; s++ {
		cfg.Seed = s
		plan := faultPlan(cfg, 2, 1)
		if plan[0].reorder && !plan[1].reorder {
			seed = s
			break
		}
	}
	cfg.Seed = seed
	in := New(cfg)
	cw, cr := pipeConn(t, in)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = cw.Write([]byte("A")) // held
		_, _ = cw.Write([]byte("B")) // passes, then flushes A
	}()
	got := readN(t, cr, 2)
	<-done
	if !bytes.Equal(got, []byte("BA")) {
		t.Fatalf("wire order %q, want BA", got)
	}
}

func TestResetAtFiresExactlyOnce(t *testing.T) {
	in := New(Config{Seed: 5, ResetAt: []uint64{1}})
	cw, cr := pipeConn(t, in)
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := cr.Read(buf); err != nil {
				return
			}
		}
	}()
	if _, err := cw.Write([]byte("ok")); err != nil { // message 0
		t.Fatalf("message 0: %v", err)
	}
	if _, err := cw.Write([]byte("boom")); err == nil { // message 1
		t.Fatal("message 1 survived a scripted reset")
	}
	// A second connection through the same injector keeps working:
	// index 1 already fired.
	cw2, cr2 := pipeConn(t, in)
	go func() { _, _ = cw2.Write([]byte("on")) }()
	if got := readN(t, cr2, 2); string(got) != "on" {
		t.Fatalf("post-reset message arrived as %q", got)
	}
	if s := in.Stats(); s.Resets != 1 {
		t.Fatalf("resets = %d, want 1", s.Resets)
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	in := New(Config{Seed: 8, Drop: 1})
	ln := in.Listener(base)

	go func() {
		c, err := net.Dial("tcp", base.Addr().String())
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 8)
		_ = c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		_, _ = c.Read(buf)
	}()
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	// Server->client writes pass through the injector (Drop=1).
	if _, err := sc.Write([]byte("vanish")); err != nil {
		t.Fatal(err)
	}
	if s := in.Stats(); s.Dropped != 1 {
		t.Fatalf("accepted conn bypassed the injector: %+v", s)
	}
}

// TestListenerForwardsDeadline pins that an accept deadline reaches the
// listener under the injector: a coordinator holding a seat open for a
// resume bounds its wait this way, and used to wait forever under any
// -chaos-* flag.
func TestListenerForwardsDeadline(t *testing.T) {
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	ln := New(Config{Seed: 1}).Listener(tcp)
	dl, ok := ln.(interface{ SetDeadline(time.Time) error })
	if !ok {
		t.Fatal("the chaos listener hides SetDeadline")
	}
	if err := dl.SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Accept returned %v, want os.ErrDeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept ignored the deadline")
	}
}
