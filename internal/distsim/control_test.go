package distsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// The control core's own tests: no sockets, no workers. Each transition
// is pinned on a small hand-built state, and the live ≡ replay property
// drives random transition sequences through a control and its journal
// together.

// TestControlCorePure keeps control.go drivable by a deterministic
// explorer (ROADMAP item 2): it may not reach for sockets, files, the
// wall clock or the telemetry layer.
func TestControlCorePure(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "control.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		switch path, _ := strconv.Unquote(imp.Path.Value); path {
		case "net", "os", "time", "repro/internal/obs":
			t.Errorf("control.go imports %s", path)
		}
	}
}

// TestCoordinatorOneGoroutine keeps the coordinator on the goroutine
// that calls Serve: its files start no goroutine and hold no channel,
// so every barrier, heal and journal write happens in one order an
// explorer can replay.
func TestCoordinatorOneGoroutine(t *testing.T) {
	fset := token.NewFileSet()
	for _, file := range []string{"coordinator.go", "control.go", "journal.go", "checkpoint.go"} {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement", fset.Position(n.Pos()))
			case *ast.ChanType:
				t.Errorf("%s: channel type", fset.Position(n.Pos()))
			}
			return true
		})
	}
}

func pendingSeqs(c *control, wi int) []uint64 {
	var seqs []uint64
	for _, ev := range c.slots[wi].pending {
		seqs = append(seqs, ev.Seq)
	}
	return seqs
}

func TestControlCommit(t *testing.T) {
	c := testControl(t)
	produced := []Event{{From: 0, To: 3, Seq: 1}, {From: 1, To: 0, Seq: 1}, {From: 2, To: 2, Seq: 5}}
	if err := c.commit(produced); err != nil {
		t.Fatal(err)
	}
	// What was pending went out with the window; the produced events
	// land on their owners' seats in the order given.
	if got := pendingSeqs(c, 0); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("seat 0 pending %v", got)
	}
	if got := pendingSeqs(c, 1); !slices.Equal(got, []uint64{1, 5}) {
		t.Fatalf("seat 1 pending %v", got)
	}
	if c.windows != 1 || c.routed != 3 || c.clock != 1.0 {
		t.Fatalf("windows %d routed %d clock %v", c.windows, c.routed, c.clock)
	}
	before := c.cut()
	if err := c.commit([]Event{{To: 4}}); err == nil {
		t.Fatal("event for LP 4 of 4 committed")
	}
	if !slices.Equal(c.cut(), before) {
		t.Fatal("a refused commit changed the state")
	}
	// The last window is clamped to the horizon.
	c.clock, c.horizon = 63.5, 64
	if err := c.commit(nil); err != nil || c.clock != 64 {
		t.Fatalf("clock %v after the clamped window (%v)", c.clock, err)
	}
}

func TestControlSkip(t *testing.T) {
	for _, tc := range []struct {
		name               string
		lookahead, clock   float64
		horizon, next      float64
		wantN              uint64
		wantClock          float64
		wantClockIsLattice bool
	}{
		{name: "next inside the next window", lookahead: 1, clock: 2, horizon: 64, next: 2.5, wantN: 0, wantClock: 2},
		{name: "window ending at next must run", lookahead: 1, clock: 2, horizon: 64, next: 3, wantN: 0, wantClock: 2},
		{name: "stops at next <= end", lookahead: 1, clock: 2, horizon: 64, next: 5.5, wantN: 3, wantClock: 5},
		{name: "next on a lattice point", lookahead: 1, clock: 2, horizon: 64, next: 6, wantN: 3, wantClock: 5},
		{name: "idle forever clamps to the horizon", lookahead: 1, clock: 61.5, horizon: 64, next: math.Inf(1), wantN: 3, wantClock: 64},
		{name: "at the horizon", lookahead: 1, clock: 64, horizon: 64, next: math.Inf(1), wantN: 0, wantClock: 64},
		{name: "repeated addition, not multiplication", lookahead: 0.1, clock: 0, horizon: 64, next: 0.95, wantN: 9, wantClockIsLattice: true},
	} {
		c := testControl(t)
		c.lookahead, c.clock, c.horizon, c.skipped = tc.lookahead, tc.clock, tc.horizon, 10
		want := tc.wantClock
		if tc.wantClockIsLattice {
			// The clock an executing run reaches after wantN windows.
			for i := uint64(0); i < tc.wantN; i++ {
				want += tc.lookahead
			}
		}
		if n := c.skip(tc.next); n != tc.wantN || c.clock != want || c.skipped != 10+tc.wantN {
			t.Errorf("%s: skipped %d to clock %v (counter %d), want %d to %v", tc.name, n, c.clock, c.skipped, tc.wantN, want)
		}
	}
}

func TestControlMigrate(t *testing.T) {
	c := testControl(t)
	c.slots[0].pending = []Event{{To: 1, Seq: 1}, {To: 0, Seq: 2}, {To: 1, Seq: 3}}
	c.slots[1].pending = []Event{{To: 2, Seq: 4}}
	for _, bad := range [][3]int{{1, 1, 0}, {1, 0, 0}, {1, 0, 2}, {4, 0, 1}, {2, 0, 1}} {
		if err := c.migrate(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("move %v accepted", bad)
		}
	}
	if err := c.migrate(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.slots[0].lps, []int{0}) || !slices.Equal(c.slots[1].lps, []int{1, 2, 3}) || !slices.Equal(c.owner, []int{0, 1, 1, 1}) {
		t.Fatalf("assignment %v / %v, owner %v", c.slots[0].lps, c.slots[1].lps, c.owner)
	}
	// LP 1's events follow it, behind what the receiver already had, in
	// arrival order; the rest keep theirs.
	if got := pendingSeqs(c, 0); !slices.Equal(got, []uint64{2}) {
		t.Fatalf("donor pending %v", got)
	}
	if got := pendingSeqs(c, 1); !slices.Equal(got, []uint64{4, 1, 3}) {
		t.Fatalf("receiver pending %v", got)
	}
	// A seat keeps at least one LP.
	if err := c.migrate(0, 0, 1); err == nil {
		t.Fatal("seat 0 gave away its last LP")
	}
}

func TestControlResetKeepsSeats(t *testing.T) {
	c := testControl(t)
	cut := c.cut()
	if err := c.migrate(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.commit([]Event{{To: 1, Seq: 9}}); err != nil {
		t.Fatal(err)
	}
	c.skip(10)
	c.reseat(0, []int{0})
	if err := c.reset(cut); err != nil {
		t.Fatal(err)
	}
	want := testControl(t)
	want.reseat(0, []int{0}) // the worker process on seat 0 is still the new one
	if !sameControl(c, want) {
		t.Fatalf("after reset %+v, want %+v", c, want)
	}
	if !slices.Equal(c.owner, []int{0, 0, 1, 1}) || c.skipped != 0 || c.windows != 0 {
		t.Fatalf("owner %v skipped %d windows %d", c.owner, c.skipped, c.windows)
	}
	// A cut that is not a partition of the LPs is refused whole.
	bad := testControl(t)
	bad.slots[1].lps = []int{1, 2, 3}
	if err := c.reset(bad.cut()); err == nil {
		t.Fatal("cut owning LP 1 twice accepted")
	}
	if !sameControl(c, want) {
		t.Fatal("a refused reset changed the state")
	}
}

// TestControlLiveEqualsReplay drives seeded random transition sequences
// through a control while journaling each one's record, snapshotting
// the live state after every record. Replaying any record-boundary
// prefix of the journal must reproduce the snapshot taken there.
func TestControlLiveEqualsReplay(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "run.journal")
		j, err := createJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		const nLPs, nWorkers = 9, 3
		c := newControl(nLPs, 0.5, 40, uint64(seed), nWorkers)
		for wi := 0; wi < nWorkers; wi++ {
			c.reseat(wi, []int{3 * wi, 3*wi + 1, 3*wi + 2})
		}
		if err := c.index(); err != nil {
			t.Fatal(err)
		}
		l := journaled{t, c, j}
		var snaps []*control
		snap := func() {
			at := *c
			at.slots, at.owner = slices.Clone(c.slots), slices.Clone(c.owner)
			if err := at.reset(c.cut()); err != nil {
				t.Fatal(err)
			}
			if uint64(len(snaps)) != j.records-1 {
				t.Fatalf("seed %d: %d snapshots for %d records", seed, len(snaps), j.records)
			}
			snaps = append(snaps, &at)
		}
		l.must(j.genesis(c))
		snap()
		cuts := [][]byte{c.cut()}
		var seq uint64
		for step := 0; step < 120 && c.clock < c.horizon; step++ {
			switch rnd.Intn(10) {
			case 0, 1, 2, 3, 4:
				produced := make([]Event, rnd.Intn(5))
				for i := range produced {
					seq++
					produced[i] = Event{Time: c.clock + rnd.Float64()*8, From: rnd.Intn(nLPs), To: rnd.Intn(nLPs), Seq: seq}
					if rnd.Intn(2) == 0 {
						produced[i].Data = []byte{byte(seq), byte(step)}
					}
				}
				l.commit(produced)
			case 5:
				before := c.skipped
				l.skip(c.clock + rnd.Float64()*4)
				if c.skipped == before {
					continue // no record written
				}
			case 6, 7:
				lp := rnd.Intn(nLPs)
				from, to := c.owner[lp], rnd.Intn(nWorkers)
				if c.checkMove(lp, from, to) != nil {
					continue
				}
				l.migrate(lp, from, to)
			case 8:
				wi := rnd.Intn(nWorkers)
				l.reseat(wi, slices.Clone(c.slots[wi].lps))
			case 9:
				if rnd.Intn(2) == 0 {
					cuts = append(cuts, c.cut())
					l.must(j.checkpointed(c.windows))
				} else {
					l.reset(cuts[rnd.Intn(len(cuts))])
				}
			}
			snap()
		}
		l.must(j.close())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bounds := recordBounds(data)
		n := 0
		for off := journalHeaderLen + 1; off <= len(data); off++ {
			if !bounds[off] {
				continue
			}
			st, err := parseJournal(data[:off])
			if err != nil {
				t.Fatalf("seed %d: prefix of %d records: %v", seed, n+1, err)
			}
			if !sameControl(st.ctl, snaps[n]) {
				t.Fatalf("seed %d: replay of %d records differs from the live state:\nreplay %+v\nlive   %+v", seed, n+1, st.ctl, snaps[n])
			}
			n++
		}
		if n != len(snaps) {
			t.Fatalf("seed %d: journal has %d records, the run wrote %d", seed, n, len(snaps))
		}
	}
}
