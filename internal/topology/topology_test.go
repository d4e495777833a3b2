package topology

import (
	"testing"

	"repro/internal/des"
)

func TestAddSiteProvisioning(t *testing.T) {
	e := des.NewEngine()
	g := NewGrid(e)
	full := g.AddSite("full", SiteSpec{
		Cores: 4, CoreSpeed: 1e9,
		DiskBytes: 1e12, DiskBps: 1e8,
		DBBytes: 1e10, DBBps: 1e8,
		TapeBytes: 1e14, TapeBps: 1e8, TapeMount: 10,
	})
	if full.CPU == nil || full.Disk == nil || full.DB == nil || full.Tape == nil {
		t.Fatal("full site missing elements")
	}
	empty := g.AddSite("empty", SiteSpec{})
	if empty.CPU != nil || empty.Disk != nil || empty.DB != nil || empty.Tape != nil {
		t.Fatal("empty site has elements")
	}
	if g.Site("full") != full || g.Site("nope") != nil {
		t.Fatal("lookup")
	}
	if full.Tier != -1 {
		t.Fatal("untired site should have Tier -1")
	}
}

func TestDuplicateSitePanics(t *testing.T) {
	e := des.NewEngine()
	g := NewGrid(e)
	g.AddSite("x", SiteSpec{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	g.AddSite("x", SiteSpec{})
}

func TestCentralModelShape(t *testing.T) {
	e := des.NewEngine()
	g := CentralModel(e, 5, SiteSpec{Cores: 16, CoreSpeed: 1e9}, SiteSpec{}, 1e6, 0.01)
	if len(g.Sites) != 6 {
		t.Fatalf("sites = %d", len(g.Sites))
	}
	central := g.Site("central")
	for i := 0; i < 5; i++ {
		c := g.Site("client0" + string(rune('0'+i)))
		if c == nil {
			t.Fatalf("client %d missing", i)
		}
		if r := g.Topo.Route(c.Net, central.Net); len(r) != 1 {
			t.Fatalf("client %d route = %d hops", i, len(r))
		}
	}
	// Clients reach each other via the centre: 2 hops.
	a, b := g.Site("client00"), g.Site("client01")
	if r := g.Topo.Route(a.Net, b.Net); len(r) != 2 {
		t.Fatalf("client-client route = %d hops", len(r))
	}
}

func TestTierModelShape(t *testing.T) {
	e := des.NewEngine()
	g := TierModel(e, []TierSpec{
		{Count: 1, Spec: SiteSpec{Cores: 16, CoreSpeed: 1e9}},
		{Count: 3, Spec: SiteSpec{Cores: 16, CoreSpeed: 1e9}, UplinkBps: 1e8, UplinkLat: 0.05},
		{Count: 2, Spec: SiteSpec{}, UplinkBps: 1e7, UplinkLat: 0.01},
	})
	if len(g.TierSites(0)) != 1 || len(g.TierSites(1)) != 3 || len(g.TierSites(2)) != 6 {
		t.Fatalf("tier sizes: %d/%d/%d",
			len(g.TierSites(0)), len(g.TierSites(1)), len(g.TierSites(2)))
	}
	t0 := g.Site("T0")
	// Every T2 reaches T0 in exactly 2 hops through its T1.
	for _, t2 := range g.TierSites(2) {
		if r := g.Topo.Route(t2.Net, t0.Net); len(r) != 2 {
			t.Fatalf("%s route to T0 = %d hops", t2.Name, len(r))
		}
	}
}

func TestTierModelValidation(t *testing.T) {
	e := des.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	TierModel(e, []TierSpec{{Count: 2, Spec: SiteSpec{}}})
}

func TestSiteGridRingConnectivity(t *testing.T) {
	e := des.NewEngine()
	g := SiteGrid(e, 8, SiteSpec{}, 1e6, 0.01, 0)
	if len(g.Sites) != 8 {
		t.Fatalf("sites = %d", len(g.Sites))
	}
	// All pairs reachable; max ring distance is 4.
	for _, a := range g.Sites {
		for _, b := range g.Sites {
			if a == b {
				continue
			}
			r := g.Topo.Route(a.Net, b.Net)
			if r == nil || len(r) > 4 {
				t.Fatalf("route %s->%s = %v", a.Name, b.Name, r)
			}
		}
	}
}

func TestSiteGridChordsShortenPaths(t *testing.T) {
	e := des.NewEngine()
	plain := SiteGrid(e, 16, SiteSpec{}, 1e6, 0.01, 0)
	e2 := des.NewEngine()
	chorded := SiteGrid(e2, 16, SiteSpec{}, 1e6, 0.01, 2)
	far := func(g *Grid) int {
		return len(g.Topo.Route(g.Sites[0].Net, g.Sites[8].Net))
	}
	if far(chorded) >= far(plain) {
		t.Fatalf("chords did not shorten: %d vs %d", far(chorded), far(plain))
	}
}

func TestP2PRingFingers(t *testing.T) {
	e := des.NewEngine()
	g := P2PRing(e, 32, SiteSpec{}, 1e6, 0.001)
	// Chord-like fingers keep the diameter logarithmic: any pair
	// within ~2*log2(32) hops.
	for _, b := range g.Sites {
		r := g.Topo.Route(g.Sites[0].Net, b.Net)
		if b != g.Sites[0] && (r == nil || len(r) > 10) {
			t.Fatalf("route to %s = %d hops", b.Name, len(r))
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	e := des.NewEngine()
	for name, fn := range map[string]func(){
		"small sitegrid": func() { SiteGrid(e, 1, SiteSpec{}, 1, 0, 0) },
		"small p2p":      func() { P2PRing(e, 1, SiteSpec{}, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
