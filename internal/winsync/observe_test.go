package winsync

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestTransportsLeaveObservingToTheKernel keeps the observers of a
// window in this package: parsim and distsim may not attach an engine
// observer or hook the pool's phases themselves, and the only rings they
// create are the ones about their own side — none in parsim; the
// worker's serve loop, the coordinator and the piggyback bench in
// distsim.
func TestTransportsLeaveObservingToTheKernel(t *testing.T) {
	for dir, rings := range map[string]int{"../parsim": 0, "../distsim": 3} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			called := map[ast.Expr]bool{}
			ast.Inspect(pkg, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					called[n.Fun] = true
				case *ast.SelectorExpr:
					switch {
					case n.Sel.Name == "SetObserver":
						t.Errorf("%s attaches an engine observer itself", dir)
					case n.Sel.Name == "Observe" && !called[n]: // a histogram's Observe is only ever called
						t.Errorf("%s names a phase hook", dir)
					case n.Sel.Name == "NewRecorder":
						rings--
					}
				}
				return true
			})
		}
		if rings < 0 {
			t.Errorf("%s creates %d more trace rings than are its own", dir, -rings)
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
				lps, pws := g.Tracks()
				if len(lps) != len(g.LPs()) || len(pws) != threads {
					t.Fatalf("group %d: %d LP and %d thread tracks, want %d and %d", gi, len(lps), len(pws), len(g.LPs()), threads)
				}
				for i, tr := range lps {
					// Adopted or not, by migration or by rollback.
					if want := fmt.Sprintf("lp-%d", g.IDs()[i]); tr.Name != want || tr.Rec.Cap() != spanCap {
						t.Fatalf("group %d: track %q with a ring of %d, want %q with %d", gi, tr.Name, tr.Rec.Cap(), want, spanCap)
					}
				}
				for _, tr := range pws {
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
