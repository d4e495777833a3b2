package winsync

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

func quietGroup(t *testing.T, lps int) *Group {
	ids := make([]int, lps)
	for i := range ids {
		ids[i] = i
	}
	g := NewGroup(ids, lps, 1, 7)
	for _, lp := range g.LPs() {
		lp.OnMessage = func(Event) {}
	}
	if err := g.Start(1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	return g
}

// TestSendRefusedAtTheCallSite pins that a delay no window can honour
// and a target outside the simulation panic in Send — on the sender's
// goroutine, naming the sender — and leave nothing buffered.
func TestSendRefusedAtTheCallSite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		to    int
		delay float64
	}{
		{"below lookahead", 1, 0.5},
		{"zero", 1, 0},
		{"negative", 1, -2},
		{"NaN", 1, math.NaN()},
		{"+Inf", 1, math.Inf(1)},
		{"-Inf", 1, math.Inf(-1)},
		{"negative target", -1, 2},
		{"target past the last LP", 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := quietGroup(t, 2)
			lp := g.LP(0)
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "LP 0: Send") {
						t.Errorf("panic %q, want one naming the sending LP", msg)
					}
				}()
				lp.Send(tc.to, tc.delay, nil)
			}()
			if lp.Sent() != 0 || len(g.Flush(nil)) != 0 || g.Next() != math.Inf(1) {
				t.Error("a refused send left something behind")
			}
		})
	}
	g := quietGroup(t, 2)
	g.LP(0).Send(1, 1, nil) // exactly the lookahead is fine
	g.Flush(nil)
	if g.Next() != 1 {
		t.Fatalf("Next() = %v after a send due at 1", g.Next())
	}
}

// TestCorruptOpArgumentPanics pins the failure mode of a damaged
// pending delivery: an op argument naming a freed record — a delivery
// run twice — is refused loudly instead of handing the model a zero
// event.
func TestCorruptOpArgumentPanics(t *testing.T) {
	g := quietGroup(t, 1)
	lp := g.LP(0)
	lp.OnMessage = func(Event) { t.Error("handler ran on a freed record") }
	_, arg := lp.msgs.Get()
	lp.msgs.Put(arg)
	lp.E.AtOp(0.5, lp.msgOp, arg)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "corrupt delivery") {
			t.Fatalf("panic %q, want the corrupt-delivery message", msg)
		}
	}()
	g.RunWindow(1, 1)
}

// TestRemotePayloadSurvivesBufferReuse pins that Deliver copies what a
// transport hands it: a remote event's payload aliases the transport's
// read buffer, which the next frame overwrites before the window runs.
func TestRemotePayloadSurvivesBufferReuse(t *testing.T) {
	g := NewGroup([]int{0}, 2, 1, 7)
	var got [][]byte
	g.LP(0).OnMessage = func(ev Event) { got = append(got, ev.Data) }
	if err := g.Start(1); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	buf := []byte("payload-a|payload-b")
	g.Deliver([]Event{
		{Time: 0.5, From: 1, To: 0, Seq: 1, Data: buf[:9]},
		{Time: 0.5, From: 1, To: 0, Seq: 2, Data: buf[10:]},
	})
	copy(buf, "XXXXXXXXXXXXXXXXXXX")
	g.RunWindow(1, 1)
	if len(got) != 2 || string(got[0]) != "payload-a" || string(got[1]) != "payload-b" {
		t.Fatalf("handler saw %q, want [payload-a payload-b]", got)
	}
}

// TestIdleSkips pins when an LP counts a window as an idle skip: exactly
// when it executes nothing in it, whatever brought its next event.
func TestIdleSkips(t *testing.T) {
	t.Run("only due event canceled", func(t *testing.T) {
		g := quietGroup(t, 1)
		lp := g.LP(0)
		tm := lp.E.At(0.5, func() { t.Error("a canceled event ran") })
		lp.E.At(1.5, func() {})
		tm.Cancel()
		g.RunWindow(1, 1)
		if st := lp.E.Stats(); g.IdleSkips() != 1 || st.Executed != 0 || st.Canceled != 1 {
			t.Fatalf("after the window: %d idle skips, %+v; want 1 skip, 0 executed, 1 canceled", g.IdleSkips(), st)
		}
		g.RunWindow(2, 2)
		if st := lp.E.Stats(); g.IdleSkips() != 1 || st.Executed != 1 {
			t.Fatalf("after the next window: %d idle skips, %d executed; want 1, 1", g.IdleSkips(), st.Executed)
		}
	})
	t.Run("op scheduled between windows", func(t *testing.T) {
		g := quietGroup(t, 2)
		lp := g.LP(0)
		var ranAt []float64
		op := lp.E.RegisterOp("test.tick", func([]byte) { ranAt = append(ranAt, lp.E.Now()) })
		g.RunWindow(1, 1)
		lp.E.AtOp(1.5, op, nil)
		g.RunWindow(2, 2)
		if len(ranAt) != 1 || ranAt[0] != 1.5 || g.IdleSkips() != 3 {
			t.Fatalf("op ran at %v with %d idle skips; want [1.5] and 3", ranAt, g.IdleSkips())
		}
	})
	t.Run("idle LP gets a delivery", func(t *testing.T) {
		g := quietGroup(t, 2)
		var got []float64
		g.LP(1).OnMessage = func(Event) { got = append(got, g.LP(1).E.Now()) }
		g.RunWindow(1, 1)
		g.RunWindow(2, 2)
		g.LP(0).Send(1, 2.5, nil)
		g.Flush(nil)
		g.Deliver(nil)
		g.RunWindow(3, 3)
		if len(got) != 1 || got[0] != 2.5 || g.IdleSkips() != 5 {
			t.Fatalf("delivered at %v with %d idle skips; want [2.5] and 5", got, g.IdleSkips())
		}
	})
}

// TestStartRequiresHandlers pins that a group does not run with an LP
// nobody gave a handler.
func TestStartRequiresHandlers(t *testing.T) {
	g := NewGroup([]int{0, 1}, 2, 1, 7)
	g.LP(0).OnMessage = func(Event) {}
	if err := g.Start(1); err == nil || !strings.Contains(err.Error(), "LP 1") {
		t.Fatalf("Start() = %v, want an error naming LP 1", err)
	}
}

// TestImageRefusals walks the ways an image can be refused: cut off a
// barrier, offered where the model disagrees about state, for an LP
// outside the simulation, or with no Install hook to build the LP.
func TestImageRefusals(t *testing.T) {
	g := quietGroup(t, 3)
	g.LP(0).Send(1, 1, nil)
	if _, err := g.Extract(0); err == nil {
		t.Error("image cut with an unflushed send")
	}
	g.Flush(nil)
	img, err := g.Extract(1) // its inbox holds the send
	if err != nil {
		t.Fatal(err)
	}
	if g.LP(1) != nil || len(g.IDs()) != 2 {
		t.Fatal("extracted LP still owned")
	}
	if err := g.Adopt(img); err == nil {
		t.Error("adopted without an Install hook")
	}
	g.Install = func(lp *LP) { lp.OnMessage = func(Event) {}; lp.State = &pholdLP{} }
	if err := g.Adopt(img); err == nil {
		t.Error("stateless image accepted by a model that keeps state")
	}
	g.Install = func(lp *LP) { lp.OnMessage = func(Event) {} }
	if err := g.Adopt(img[:len(img)-1]); err == nil {
		t.Error("truncated image accepted")
	}
	if g.LP(1) != nil {
		t.Fatal("a refused image left an LP behind")
	}
	if err := g.Adopt(img); err != nil {
		t.Fatal(err)
	}
	if g.Next() != 1 {
		t.Fatalf("Next() = %v: the inbox did not travel with the LP", g.Next())
	}
	if err := g.Adopt(img); err != nil || len(g.IDs()) != 3 {
		t.Errorf("re-adopting an owned LP: %v, %d LPs", err, len(g.IDs()))
	}
	if _, err := quietGroup(t, 1).Extract(0); err == nil {
		t.Error("a group gave its last LP away")
	}
	small := quietGroup(t, 1)
	small.Install = g.Install
	if err := small.Adopt(img); err == nil {
		t.Error("image of LP 1 adopted into a one-LP simulation")
	}
}

// FuzzDecodeEvent feeds arbitrary bytes to the one event decoder — LP
// images (inbox events and pending deliveries) and distsim's frames go
// through it, op arguments no longer do (a delivery's is its record's
// index): it must return an event or an error, never panic. Whatever
// decodes must survive encode → decode unchanged, and every strict
// prefix of an encoding must be refused as truncated.
func FuzzDecodeEvent(f *testing.F) {
	encode := func(ev Event) []byte {
		var enc checkpoint.Enc
		AppendEvent(&enc, &ev)
		return enc.Bytes()
	}
	decode := func(b []byte) (Event, error) {
		d := checkpoint.NewDec(b)
		ev := DecodeEvent(d)
		return ev, d.Err()
	}
	for _, ev := range []Event{
		{},
		{Time: 2.5, From: 63, To: 1, Seq: 9, Data: []byte{1, 2, 3}},
		{Time: math.Inf(1), From: 1 << 40, To: 1 << 20, Seq: math.MaxUint64, Data: bytes.Repeat([]byte{0xAB}, 300)},
	} {
		f.Add(encode(ev))
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add(append(make([]byte, 8), 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01))

	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := decode(data)
		if err != nil || ev.From < 0 || ev.To < 0 {
			// An LP ID past the int range cannot be re-encoded; no group
			// produces one.
			return
		}
		enc := encode(ev)
		back, err := decode(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if math.Float64bits(back.Time) != math.Float64bits(ev.Time) || back.From != ev.From ||
			back.To != ev.To || back.Seq != ev.Seq || !bytes.Equal(back.Data, ev.Data) {
			t.Fatalf("round trip changed the event: %+v -> %+v", ev, back)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decode(enc[:cut]); err == nil {
				t.Fatalf("truncation of %x to %d bytes accepted", enc, cut)
			}
		}
	})
}

// FuzzAdoptImage offers arbitrary bytes to a group with PHOLD installed
// as an LP image. Each must be refused, or adopted as an LP whose
// Extract gives back the same bytes — the codec is canonical, so
// nothing it accepts is lost or rewritten — without a panic or an
// allocation out of proportion to the input. Seeds: real images, cut
// with a window's sends flushed but not delivered, of every LP the
// group does not own, their truncations, one whose engine claims 2⁴⁰
// pending events, and the images once those sends are delivered, with
// their truncations.
func FuzzAdoptImage(f *testing.F) {
	model := denseInput
	src := newCluster(f, model, 1, 1, 0)
	src.run(7)
	src.groups[0].RunWindow(src.end+invLookahead, src.seq+1)
	src.groups[0].Flush(nil)
	imgs, _ := src.images()
	owned := invLPs - 1
	for _, img := range imgs[:owned] {
		f.Add(img)
		f.Add(img[:len(img)/2])
		f.Add(img[:len(img)-1])
	}
	// The bomb: LP 0's image up to its engine's event count (past the
	// LP header, the inbox and the engine's seed, clock, sequence, three
	// counters, high-water mark and random stream), then 2⁴⁰.
	d := checkpoint.NewDec(imgs[0])
	d.Int()
	d.U64()
	d.U64()
	d.U64()
	d.Bool()
	for n := d.Int(); n > 0; n-- {
		DecodeEvent(d)
	}
	d.U64()
	d.F64()
	for range 5 {
		d.U64()
	}
	d.RawView()
	bomb := checkpoint.NewEnc(nil)
	bomb.U64(1 << 40)
	f.Add(append(slices.Clone(imgs[0][:len(imgs[0])-d.Remaining()]), bomb.Bytes()...))
	// The same window's sends delivered and not yet run: images whose
	// LPs hold pending deliveries, and their truncations.
	if len(src.groups[0].inbox) == 0 {
		f.Fatal("the window flushed no local sends; the delivery seeds would hold none")
	}
	src.groups[0].Deliver(nil)
	pending, _ := src.images()
	for _, img := range pending[:owned] {
		f.Add(img)
		f.Add(img[:len(img)/2])
		f.Add(img[:len(img)-1])
	}

	f.Fuzz(func(t *testing.T, img []byte) {
		g := NewGroup([]int{owned}, invLPs, invLookahead, invSeed)
		g.Install = model.Install
		model.Install(g.LP(owned))
		id, err := imageID(img)
		if err == nil && g.LP(id) != nil {
			return // an owned LP's image is ignored
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = g.Adopt(img)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20+256*uint64(len(img)) {
			t.Fatalf("adopting %d bytes allocated %d", len(img), got)
		}
		if err != nil {
			if len(g.IDs()) != 1 {
				t.Fatalf("a refused image left LPs %v", g.IDs())
			}
			return
		}
		back, err := g.Extract(id)
		if err != nil {
			t.Fatalf("adopted LP %d cannot be extracted: %v", id, err)
		}
		if !bytes.Equal(back, img) {
			t.Fatalf("adopted image\n %x\ncame back as\n %x", img, back)
		}
	})
}
