package winsync

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/checkpoint"
)

// cluster is k groups over one set of LPs, joined by the simplest
// transport there is: after every group has run and flushed a window,
// each flushed event is handed to the group that owns its target.
type cluster struct {
	t      testing.TB
	model  *PHOLD
	groups []*Group
	end    float64
	seq    uint64
}

const (
	invLPs       = 6
	invLookahead = 0.5
	invSeed      = 2024
)

// denseInput keeps every LP busy in almost every window; sparseInput,
// one job per LP at a mean spacing of 16 lookaheads, leaves most LPs
// idle in most windows, so the idle skips and their count in the LP
// images carry the result.
var (
	denseInput = PHOLD{
		TotalLPs: invLPs, JobsPerLP: 6, RemoteProb: 0.4, Work: 3,
		DelayFactor: 2, SkewHot: 2, SkewFactor: 3,
	}
	sparseInput = PHOLD{
		TotalLPs: invLPs, JobsPerLP: 1, RemoteProb: 0.4, Work: 3,
		DelayFactor: 16, SkewHot: 2, SkewFactor: 3,
	}
)

// newCluster deals the LPs round-robin to k groups of the given thread
// count and seeds the model; spanCap > 0 makes the groups observed.
func newCluster(t testing.TB, model PHOLD, k, threads, spanCap int) *cluster {
	c := &cluster{t: t, model: &model}
	for gi := 0; gi < k; gi++ {
		var ids []int
		for id := gi; id < invLPs; id += k {
			ids = append(ids, id)
		}
		g := NewGroup(ids, invLPs, invLookahead, invSeed)
		g.Install = c.model.Install
		if spanCap > 0 {
			g.EnableObservability(spanCap)
		}
		for _, lp := range g.LPs() {
			c.model.Install(lp)
			c.model.Seed(lp)
		}
		if err := g.Start(threads); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Stop)
		c.groups = append(c.groups, g)
	}
	return c
}

// run advances the cluster by the given number of windows.
func (c *cluster) run(windows int) {
	routed := make([][]Event, len(c.groups))
	for ; windows > 0; windows-- {
		c.end += invLookahead
		c.seq++
		for i := range routed {
			routed[i] = routed[i][:0]
		}
		for _, g := range c.groups {
			g.RunWindow(c.end, c.seq)
			for _, ev := range g.Flush(nil) {
				to := c.owner(ev.To)
				routed[to] = append(routed[to], ev)
			}
		}
		for i, g := range c.groups {
			g.Deliver(routed[i])
		}
	}
}

func (c *cluster) owner(id int) int {
	for i, g := range c.groups {
		if g.LP(id) != nil {
			return i
		}
	}
	c.t.Fatalf("no group owns LP %d", id)
	return -1
}

// snapshot returns one snapshot per group.
func (c *cluster) snapshot() [][]byte {
	out := make([][]byte, len(c.groups))
	for i, g := range c.groups {
		var buf bytes.Buffer
		cw := checkpoint.NewWriter(&buf)
		if err := g.WriteSnapshot(cw); err != nil {
			c.t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			c.t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

func (c *cluster) restore(snaps [][]byte) {
	for i, g := range c.groups {
		snap, err := checkpoint.Read(bytes.NewReader(snaps[i]))
		if err != nil {
			c.t.Fatal(err)
		}
		if err := g.Restore(snap); err != nil {
			c.t.Fatal(err)
		}
	}
}

// migrate moves one LP from the first group that can spare one to the
// next group; with nowhere to move anything it does nothing.
func (c *cluster) migrate() (moved bool) {
	for i, g := range c.groups {
		if len(c.groups) == 1 || len(g.IDs()) < 2 {
			continue
		}
		img, err := g.Extract(g.IDs()[0])
		if err != nil {
			c.t.Fatal(err)
		}
		if err := c.groups[(i+1)%len(c.groups)].Adopt(img); err != nil {
			c.t.Fatal(err)
		}
		return true
	}
	return false
}

// images returns every LP's image and event count, by LP ID.
func (c *cluster) images() (imgs [invLPs][]byte, counts [invLPs]uint64) {
	for i, data := range c.snapshot() {
		snap, err := checkpoint.Read(bytes.NewReader(data))
		if err != nil {
			c.t.Fatal(err)
		}
		for _, img := range snap.All(SecLP) {
			id, err := imageID(img)
			if err != nil {
				c.t.Fatal(err)
			}
			imgs[id] = img
			counts[id] = c.model.Events(c.groups[i].LP(id))
		}
	}
	return imgs, counts
}

// TestPartitionInvariance is the kernel's contract: the same seeded
// PHOLD run gives the same bits — per-LP event counts and per-LP
// images, which hold the engines' clocks, pending events, random
// streams and idle skips — however the LPs are dealt to groups and
// threads, and whether or not the run is rolled back to a snapshot
// taken under another assignment and has an LP migrated under it,
// twice. The groups' idle skips sum to the one-group run's. The dense
// input rarely idles; the sparse one, run twenty times as many windows,
// mostly does.
func TestPartitionInvariance(t *testing.T) {
	checkInvariance(t, denseInput, 1)
	t.Run("sparse", func(t *testing.T) { checkInvariance(t, sparseInput, 20) })
}

// checkInvariance is TestPartitionInvariance on one input, its window
// schedule stretched by scale.
func checkInvariance(t *testing.T, model PHOLD, scale int) {
	before, between, after := 7*scale, 5*scale, 9*scale
	ref := newCluster(t, model, 1, 1, 0)
	ref.run(before + between + after)
	refImgs, refCounts := ref.images()
	refIdle := ref.idleSkips()
	var sent uint64
	for _, lp := range ref.groups[0].LPs() {
		sent += lp.Sent()
	}
	t.Logf("reference: %d cross-LP events, %d of %d (LP, window) pairs idle", sent, refIdle, (before+between+after)*invLPs)
	if sent < 50 || refIdle == 0 {
		t.Fatalf("reference run sent %d cross-LP events and skipped %d; test is vacuous", sent, refIdle)
	}

	for _, k := range []int{1, 2, 3, invLPs} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("groups=%d/threads=%d", k, threads), func(t *testing.T) {
				c := newCluster(t, model, k, threads, 0)
				c.run(before)
				snaps := c.snapshot()
				layout := fmt.Sprint(c.layout())

				c.run(between)
				moved := c.migrate()
				if moved == (k == 1 || k == invLPs) {
					t.Fatalf("migrate() = %v with %d groups", moved, k)
				}
				c.run(2)

				// Roll back across the migration: Restore has to adopt
				// and drop LPs to get the snapshot's assignment back.
				c.restore(snaps)
				if got := fmt.Sprint(c.layout()); got != layout {
					t.Fatalf("layout after rollback %s, want %s", got, layout)
				}
				c.end = float64(before) * invLookahead
				c.run(between)
				c.migrate()
				c.run(after)

				imgs, counts := c.images()
				if counts != refCounts {
					t.Fatalf("per-LP events %v, want %v", counts, refCounts)
				}
				if idle := c.idleSkips(); idle != refIdle {
					t.Errorf("idle skips summed over the groups %d, want %d", idle, refIdle)
				}
				for id := range imgs {
					if !bytes.Equal(imgs[id], refImgs[id]) {
						t.Errorf("LP %d: image differs from the one-group run's", id)
					}
				}
			})
		}
	}
}

func (c *cluster) idleSkips() (n uint64) {
	for _, g := range c.groups {
		n += g.IdleSkips()
	}
	return n
}

func (c *cluster) layout() [][]int {
	out := make([][]int, len(c.groups))
	for i, g := range c.groups {
		out[i] = append([]int(nil), g.IDs()...)
	}
	return out
}
