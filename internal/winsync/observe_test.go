package winsync

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// TestGroupTimesItsWindows pins the group's window phases under both
// orders a transport calls the group in: RunWindow → Flush → Deliver
// (parsim's, and the test cluster's) and, after a Stop, Deliver →
// RunWindow → Flush (a worker's). Every window has one busy sample and
// one busy anchor stamped with its (end, seq); the busy stretch starts
// at the Deliver before the RunWindow, or at the RunWindow when none
// came first; the barrier wait runs from the Flush before to the
// delivery; and a Stop leaves no phase open.
func TestGroupTimesItsWindows(t *testing.T) {
	const windows = 6
	c := newCluster(t, denseInput, 1, 1, 64)
	g := c.groups[0]
	c.run(windows)
	g.Stop()
	if err := g.Start(1); err != nil {
		t.Fatal(err)
	}
	c.end += invLookahead
	c.seq++
	g.Deliver(nil)
	g.RunWindow(c.end, c.seq)
	g.Flush(nil)

	deliver, busy, wait, ok := g.Phases()
	if !ok || deliver.Count() != windows+1 || busy.Count() != windows+1 || wait.Count() != windows-1 {
		t.Fatalf("phases: %d delivers, %d busy, %d waits; want %d, %d, %d",
			deliver.Count(), busy.Count(), wait.Count(), windows+1, windows+1, windows-1)
	}
	group, _ := g.Tracks()
	byKind := map[obs.Kind]map[uint64]obs.Span{obs.KindBarrierWait: {}, obs.KindDeliver: {}, obs.KindWindowBusy: {}}
	for _, sp := range group[0].Rec.Spans() {
		if _, dup := byKind[sp.Kind][sp.Seq]; dup || byKind[sp.Kind] == nil {
			t.Fatalf("window track: unexpected %v span of window %d", sp.Kind, sp.Seq)
		}
		if sp.Time != float64(sp.Seq)*invLookahead || sp.Dur < 0 {
			t.Fatalf("window track: %v span of window %d ending at %v, %d ns", sp.Kind, sp.Seq, sp.Time, sp.Dur)
		}
		byKind[sp.Kind][sp.Seq] = sp
	}
	waits, dlvs, busies := byKind[obs.KindBarrierWait], byKind[obs.KindDeliver], byKind[obs.KindWindowBusy]
	// Window 1 and the window after the Stop have no barrier wait before
	// them; window 1 has no delivery either, and the cluster's last one
	// went with the Stop.
	if len(busies) != windows+1 || len(dlvs) != windows || len(waits) != windows-1 {
		t.Fatalf("window track: %d busy, %d deliver, %d wait spans; want %d, %d, %d",
			len(busies), len(dlvs), len(waits), windows+1, windows, windows-1)
	}
	for seq := uint64(1); seq <= windows+1; seq++ {
		b := busies[seq]
		d, hasD := dlvs[seq]
		switch {
		case seq == 1 && hasD:
			t.Fatal("window 1 has a delivery before it")
		case seq > 1 && b.Wall != d.Wall:
			t.Fatalf("window %d: busy from %d, its delivery from %d", seq, b.Wall, d.Wall)
		}
		if w, ok := waits[seq]; ok {
			if prev := busies[seq-1]; w.Wall != prev.Wall+prev.Dur || w.Wall+w.Dur != d.Wall {
				t.Fatalf("window %d: wait [%d, %d], previous busy ends at %d, delivery starts at %d",
					seq, w.Wall, w.Wall+w.Dur, prev.Wall+prev.Dur, d.Wall)
			}
		} else if seq > 1 && seq <= windows {
			t.Fatalf("window %d has no barrier wait", seq)
		}
	}
}

// obsTotals is what an observed group has recorded so far; no field may
// ever decrease, whatever happens to the group's LP set.
type obsTotals struct{ exec, dwell, dropped uint64 }

func totals(g *Group) obsTotals {
	m, dropped := g.Totals()
	return obsTotals{m.Exec.Count(), m.Dwell.Count(), dropped}
}

// executed sums the engines' executed-event counters over the cluster.
func (c *cluster) executed() (n uint64) {
	for _, g := range c.groups {
		for _, lp := range g.LPs() {
			n += lp.E.Stats().Executed
		}
	}
	return n
}

// results is what a run comes to, per LP: job events, engine events,
// messages sent and received, clock. (LP images are no use here: an
// observed engine keeps every pending event's schedule time, for the
// dwell histogram, and an unobserved one does not.)
func (c *cluster) results() (r [invLPs][5]float64) {
	for _, g := range c.groups {
		for _, lp := range g.LPs() {
			r[lp.ID] = [5]float64{float64(c.model.Events(lp)), float64(lp.E.Stats().Executed),
				float64(lp.Sent()), float64(lp.Received()), lp.E.Now()}
		}
	}
	return r
}

// TestObservedMigrationAndRollback runs an observed PHOLD over two
// groups while LPs move between them and the cluster is rolled back
// across a move: observing changes no result, every executed event is
// in exactly one group's exec histogram — an LP's history stays with
// the group it ran on — no total ever decreases, and an LP that arrives
// gets a ring of the group's capacity.
func TestObservedMigrationAndRollback(t *testing.T) {
	const before, between, after = 7, 5, 9
	const spanCap = 8 // small, so the rings overflow and drops are carried
	ref := newCluster(t, denseInput, 1, 1, 0)
	ref.run(before + between + after)
	refResults := ref.results()

	for _, threads := range []int{1, 3} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			c := newCluster(t, denseInput, 2, threads, spanCap)
			var ran uint64 // events executed, the rolled-back ones included
			run := func(windows int) {
				was := c.executed()
				c.run(windows)
				ran += c.executed() - was
			}
			// step does something to the LP sets and checks what may not
			// change with them.
			step := func(what string, do func()) {
				var was []obsTotals
				for _, g := range c.groups {
					was = append(was, totals(g))
				}
				do()
				var exec uint64
				for i, g := range c.groups {
					now := totals(g)
					if now.exec < was[i].exec || now.dwell < was[i].dwell || now.dropped < was[i].dropped {
						t.Fatalf("%s: group %d totals went from %+v to %+v", what, i, was[i], now)
					}
					exec += now.exec
				}
				if exec != ran {
					t.Fatalf("%s: exec histograms hold %d samples, %d events were executed", what, exec, ran)
				}
			}
			migrate := func() {
				if !c.migrate() {
					t.Fatal("nothing migrated")
				}
			}

			run(before)
			snaps := c.snapshot()
			run(between)
			step("migrate", migrate)
			run(2)
			step("rollback", func() { c.restore(snaps) })
			c.end, c.seq = before*invLookahead, before
			run(between)
			step("migrate again", migrate)
			run(after)
			step("end", func() {})

			if got := c.results(); got != refResults {
				t.Fatalf("per-LP results %v, want the unobserved run's %v", got, refResults)
			}
			var dropped uint64
			for gi, g := range c.groups {
				group, pws := g.Tracks()
				if len(group) != 1+len(g.LPs()) || group[0].Name != "window" || len(pws) != threads {
					t.Fatalf("group %d: %d group and %d thread tracks, want a window track, %d LP tracks and %d", gi, len(group), len(pws), len(g.LPs()), threads)
				}
				lps := group[1:]
				for i, tr := range lps {
					// Adopted or not, by migration or by rollback.
					if want := fmt.Sprintf("lp-%d", g.IDs()[i]); tr.Name != want || tr.Rec.Cap() != spanCap {
						t.Fatalf("group %d: track %q with a ring of %d, want %q with %d", gi, tr.Name, tr.Rec.Cap(), want, spanCap)
					}
				}
				for _, tr := range append(pws, group[0]) {
					for _, s := range tr.Rec.Spans() {
						if s.Seq == 0 || s.Seq > c.seq || s.Time != float64(s.Seq)*invLookahead {
							t.Fatalf("group %d %s: span of window %d ending at %v", gi, tr.Name, s.Seq, s.Time)
						}
					}
				}
				dropped += totals(g).dropped
			}
			if dropped == 0 {
				t.Fatal("no ring overflowed; the carried drop count went untested")
			}
		})
	}
}
