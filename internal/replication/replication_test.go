package replication

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// dataGrid builds a 3-site ring with disks and a flow network.
func dataGrid(e *des.Engine, diskBytes float64) (*topology.Grid, *netsim.Network) {
	spec := topology.SiteSpec{DiskBytes: diskBytes, DiskBps: 1e6, DiskChans: 2}
	g := topology.SiteGrid(e, 3, spec, 1e5, 0.01, 0)
	return g, netsim.NewNetwork(e, g.Topo)
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog()
	f := &File{Name: "a", Bytes: 100}
	c.Define(f)
	if c.File("a") != f || c.Files() != 1 {
		t.Fatal("define/lookup")
	}
	e := des.NewEngine()
	g, _ := dataGrid(e, 1e9)
	s0, s1 := g.Sites[0], g.Sites[1]
	c.AddReplica("a", s0)
	c.AddReplica("a", s1)
	c.AddReplica("a", s0) // duplicate: no-op
	if c.ReplicaCount("a") != 2 || !c.HasReplica("a", s0) {
		t.Fatalf("replicas = %v", c.Holders("a"))
	}
	c.RemoveReplica("a", s0)
	if c.HasReplica("a", s0) || c.ReplicaCount("a") != 1 {
		t.Fatal("remove failed")
	}
	c.RemoveReplica("a", s0) // absent: no-op
}

func TestCatalogValidation(t *testing.T) {
	c := NewCatalog()
	for name, fn := range map[string]func(){
		"bad file":   func() { c.Define(&File{Name: "", Bytes: 1}) },
		"resize":     func() { c.Define(&File{Name: "x", Bytes: 1}); c.Define(&File{Name: "x", Bytes: 2}) },
		"undef repl": func() { c.AddReplica("ghost", nil) },
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

func TestAccessLocalHit(t *testing.T) {
	e := des.NewEngine()
	g, net := dataGrid(e, 1e9)
	sys := NewSystem(e, net)
	s0 := g.Sites[0]
	sys.AddStore(s0, EvictLRU, ModePull)
	f := &File{Name: "data", Bytes: 1000}
	sys.Place(f, s0)
	var err error
	e.Spawn("job", func(p *des.Process) { err = sys.Access(p, s0, "data") })
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sys.LocalHits != 1 || sys.RemoteReads != 0 || sys.WANBytes != 0 {
		t.Fatalf("stats %d/%d/%v", sys.LocalHits, sys.RemoteReads, sys.WANBytes)
	}
}

func TestAccessPullCreatesReplica(t *testing.T) {
	e := des.NewEngine()
	g, net := dataGrid(e, 1e9)
	sys := NewSystem(e, net)
	s0, s1 := g.Sites[0], g.Sites[1]
	sys.AddStore(s0, EvictLRU, ModePull)
	sys.AddStore(s1, EvictLRU, ModePull)
	f := &File{Name: "data", Bytes: 1000}
	sys.Place(f, s0)
	e.Spawn("job", func(p *des.Process) {
		if err := sys.Access(p, s1, "data"); err != nil {
			t.Error(err)
		}
		// Second access must be a local hit.
		if err := sys.Access(p, s1, "data"); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if sys.Pulls != 1 {
		t.Fatalf("pulls = %d", sys.Pulls)
	}
	if sys.RemoteReads != 1 || sys.LocalHits != 1 {
		t.Fatalf("remote/local = %d/%d", sys.RemoteReads, sys.LocalHits)
	}
	if !sys.Catalog().HasReplica("data", s1) {
		t.Fatal("catalog not updated")
	}
	if sys.WANBytes != 1000 {
		t.Fatalf("WAN bytes = %v", sys.WANBytes)
	}
}

func TestAccessModeNoneNeverStores(t *testing.T) {
	e := des.NewEngine()
	g, net := dataGrid(e, 1e9)
	sys := NewSystem(e, net)
	s0, s1 := g.Sites[0], g.Sites[1]
	sys.AddStore(s0, EvictLRU, ModeNone)
	sys.AddStore(s1, EvictLRU, ModeNone)
	f := &File{Name: "data", Bytes: 1000}
	sys.Place(f, s0)
	e.Spawn("job", func(p *des.Process) {
		for i := 0; i < 3; i++ {
			if err := sys.Access(p, s1, "data"); err != nil {
				t.Error(err)
			}
		}
	})
	e.Run()
	if sys.Pulls != 0 || sys.LocalHits != 0 || sys.RemoteReads != 3 {
		t.Fatalf("stats %d/%d/%d", sys.Pulls, sys.LocalHits, sys.RemoteReads)
	}
	if sys.WANBytes != 3000 {
		t.Fatalf("WAN bytes = %v (every access remote)", sys.WANBytes)
	}
}

func TestLRUEviction(t *testing.T) {
	// A big "master" site holds three files; a small cache site fits
	// only two replicas, so the third pull must evict the least
	// recently used one.
	e2 := des.NewEngine()
	spec := topology.SiteSpec{DiskBytes: 1e9, DiskBps: 1e6, DiskChans: 2}
	specSmall := topology.SiteSpec{DiskBytes: 2500, DiskBps: 1e6, DiskChans: 2}
	g2 := topology.NewGrid(e2)
	master := g2.AddSite("master", spec)
	cache := g2.AddSite("cache", specSmall)
	g2.Link(master, cache, 1e6, 0.001)
	g2.Topo.ComputeRoutes()
	net2 := netsim.NewNetwork(e2, g2.Topo)
	sys2 := NewSystem(e2, net2)
	sys2.AddStore(master, EvictLRU, ModePull)
	cst := sys2.AddStore(cache, EvictLRU, ModePull)
	for _, n := range []string{"a", "b", "c"} {
		sys2.Place(&File{Name: n, Bytes: 1000}, master)
	}
	e2.Spawn("job", func(p *des.Process) {
		must := func(name string) {
			if err := sys2.Access(p, cache, name); err != nil {
				t.Error(err)
			}
		}
		must("a") // cache: a
		p.Hold(1)
		must("b") // cache: a,b
		p.Hold(1)
		must("a") // touch a (b becomes LRU)
		p.Hold(1)
		must("c") // evicts b
	})
	e2.Run()
	if !cst.Has("a") || !cst.Has("c") || cst.Has("b") {
		t.Fatalf("cache contents wrong: a=%v b=%v c=%v", cst.Has("a"), cst.Has("b"), cst.Has("c"))
	}
	if cst.Evictions != 1 {
		t.Fatalf("evictions = %d", cst.Evictions)
	}
	if sys2.Catalog().HasReplica("b", cache) {
		t.Fatal("catalog still lists evicted replica")
	}
}

func TestPinnedMasterNeverEvicted(t *testing.T) {
	e := des.NewEngine()
	spec := topology.SiteSpec{DiskBytes: 1500, DiskBps: 1e6, DiskChans: 1}
	g := topology.NewGrid(e)
	a := g.AddSite("a", spec)
	b := g.AddSite("b", topology.SiteSpec{DiskBytes: 1e9, DiskBps: 1e6, DiskChans: 1})
	g.Link(a, b, 1e6, 0.001)
	g.Topo.ComputeRoutes()
	net := netsim.NewNetwork(e, g.Topo)
	sys := NewSystem(e, net)
	sa := sys.AddStore(a, EvictLRU, ModePull)
	sys.AddStore(b, EvictLRU, ModePull)
	sys.Place(&File{Name: "master", Bytes: 1000}, a) // pinned at a
	sys.Place(&File{Name: "big", Bytes: 1000}, b)
	e.Spawn("job", func(p *des.Process) {
		// Pulling "big" to a needs 1000 bytes but only 500 free and
		// the master is pinned → pull refused, remote read instead.
		if err := sys.Access(p, a, "big"); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if !sa.Has("master") {
		t.Fatal("pinned master evicted")
	}
	if sa.Has("big") {
		t.Fatal("replica admitted without space")
	}
	if sa.Refused != 1 {
		t.Fatalf("refused = %d", sa.Refused)
	}
	if sys.RemoteReads != 1 {
		t.Fatalf("remote reads = %d", sys.RemoteReads)
	}
}

func TestLFUEviction(t *testing.T) {
	e := des.NewEngine()
	spec := topology.SiteSpec{DiskBytes: 2000, DiskBps: 1e8, DiskChans: 4}
	g := topology.NewGrid(e)
	m := g.AddSite("m", topology.SiteSpec{DiskBytes: 1e9, DiskBps: 1e8, DiskChans: 4})
	c := g.AddSite("c", spec)
	g.Link(m, c, 1e7, 0.001)
	g.Topo.ComputeRoutes()
	net := netsim.NewNetwork(e, g.Topo)
	sys := NewSystem(e, net)
	sys.AddStore(m, EvictLRU, ModePull)
	cst := sys.AddStore(c, EvictLFU, ModePull)
	for _, n := range []string{"hot", "cold", "new"} {
		sys.Place(&File{Name: n, Bytes: 1000}, m)
	}
	e.Spawn("job", func(p *des.Process) {
		must := func(name string) {
			if err := sys.Access(p, c, name); err != nil {
				t.Error(err)
			}
		}
		must("hot")
		must("hot")
		must("hot")  // hot: 3 accesses
		must("cold") // cold: 1
		must("new")  // evicts cold (least frequently used)
	})
	e.Run()
	if !cst.Has("hot") || !cst.Has("new") || cst.Has("cold") {
		t.Fatalf("LFU contents: hot=%v cold=%v new=%v", cst.Has("hot"), cst.Has("cold"), cst.Has("new"))
	}
}

func TestEconomicRefusesWorthlessReplica(t *testing.T) {
	e := des.NewEngine()
	g := topology.NewGrid(e)
	m := g.AddSite("m", topology.SiteSpec{DiskBytes: 1e9, DiskBps: 1e8, DiskChans: 4})
	c := g.AddSite("c", topology.SiteSpec{DiskBytes: 1000, DiskBps: 1e8, DiskChans: 4})
	g.Link(m, c, 1e7, 0.001)
	g.Topo.ComputeRoutes()
	net := netsim.NewNetwork(e, g.Topo)
	sys := NewSystem(e, net)
	sys.AddStore(m, EvictLRU, ModePull)
	cst := sys.AddStore(c, EvictEconomic, ModePull)
	sys.Place(&File{Name: "hot", Bytes: 1000}, m)
	sys.Place(&File{Name: "onceoff", Bytes: 1000}, m)
	e.Spawn("job", func(p *des.Process) {
		// Build hot's value at the cache.
		for i := 0; i < 5; i++ {
			if err := sys.Access(p, c, "hot"); err != nil {
				t.Error(err)
			}
		}
		// A one-off file should not displace the valuable replica.
		if err := sys.Access(p, c, "onceoff"); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if !cst.Has("hot") {
		t.Fatal("economic policy evicted the hot replica")
	}
	if cst.Has("onceoff") {
		t.Fatal("economic policy admitted the one-off file")
	}
}

func TestPushReplication(t *testing.T) {
	e := des.NewEngine()
	g, net := dataGrid(e, 1e9)
	sys := NewSystem(e, net)
	for _, s := range g.Sites {
		sys.AddStore(s, EvictLRU, ModePush)
	}
	sys.SetPushConfig(PushConfig{Threshold: 2, Fanout: 2})
	holder := g.Sites[0]
	sys.Place(&File{Name: "popular", Bytes: 1000}, holder)
	e.Spawn("job", func(p *des.Process) {
		// Two local accesses at the holder trigger a push to both
		// other sites.
		for i := 0; i < 2; i++ {
			if err := sys.Access(p, holder, "popular"); err != nil {
				t.Error(err)
			}
		}
	})
	e.Run()
	if sys.Pushes != 2 {
		t.Fatalf("pushes = %d", sys.Pushes)
	}
	if sys.Catalog().ReplicaCount("popular") != 3 {
		t.Fatalf("replicas = %d", sys.Catalog().ReplicaCount("popular"))
	}
}

func TestAccessNoReplicaError(t *testing.T) {
	e := des.NewEngine()
	g, net := dataGrid(e, 1e9)
	sys := NewSystem(e, net)
	sys.AddStore(g.Sites[0], EvictLRU, ModePull)
	var errUndef, errNoHolder error
	sys.Catalog().Define(&File{Name: "orphan", Bytes: 10})
	e.Spawn("job", func(p *des.Process) {
		errUndef = sys.Access(p, g.Sites[0], "ghost")
		errNoHolder = sys.Access(p, g.Sites[0], "orphan")
	})
	e.Run()
	if !errors.Is(errUndef, ErrNoReplica) || !errors.Is(errNoHolder, ErrNoReplica) {
		t.Fatalf("errs = %v / %v", errUndef, errNoHolder)
	}
}

// TestDefineRejectsNonFiniteSizes: NaN slips past a "< 0" check, and
// a NaN-sized master would turn its disk's used bytes into NaN, after
// which the disk admits whatever comes.
func TestDefineRejectsNonFiniteSizes(t *testing.T) {
	for _, bytes := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Define of a %v-byte file did not panic", bytes)
				}
			}()
			NewCatalog().Define(&File{Name: "x", Bytes: bytes})
		}()
	}
}

func TestNearestHolderPreferred(t *testing.T) {
	e := des.NewEngine()
	g := topology.NewGrid(e)
	near := g.AddSite("near", topology.SiteSpec{DiskBytes: 1e9, DiskBps: 1e8, DiskChans: 4})
	far := g.AddSite("far", topology.SiteSpec{DiskBytes: 1e9, DiskBps: 1e8, DiskChans: 4})
	me := g.AddSite("me", topology.SiteSpec{DiskBytes: 1e9, DiskBps: 1e8, DiskChans: 4})
	g.Link(me, near, 1e7, 0.001)
	g.Link(me, far, 1e7, 0.5)
	g.Topo.ComputeRoutes()
	net := netsim.NewNetwork(e, g.Topo)
	sys := NewSystem(e, net)
	sys.AddStore(near, EvictLRU, ModeNone)
	sys.AddStore(far, EvictLRU, ModeNone)
	sys.AddStore(me, EvictLRU, ModeNone)
	sys.Place(&File{Name: "f", Bytes: 100}, far)
	sys.Place(&File{Name: "f2", Bytes: 100}, near)
	sys.Catalog().AddReplica("f", near) // also at near (no data move; test shortcut)
	sys.Store(near).admit(sys.Catalog().File("f"), 0, 1, false)
	var doneAt float64
	e.Spawn("job", func(p *des.Process) {
		if err := sys.Access(p, me, "f"); err != nil {
			t.Error(err)
		}
		doneAt = p.Now()
	})
	e.Run()
	// Served from "near" (1 ms latency), not "far" (500 ms).
	if doneAt > 0.1 {
		t.Fatalf("doneAt = %v; served from far holder?", doneAt)
	}
}

func TestAgentFanoutAndBacklog(t *testing.T) {
	e := des.NewEngine()
	g, net := dataGrid(e, 1e9)
	sys := NewSystem(e, net)
	for _, s := range g.Sites {
		sys.AddStore(s, EvictLRU, ModePull)
	}
	src := g.Sites[0]
	subs := []*topology.Site{g.Sites[1], g.Sites[2]}
	agent := sys.NewAgent(src, subs)
	e.Schedule(0, func() { agent.Produce(&File{Name: "run001", Bytes: 1e5}) })
	e.Run()
	if agent.Shipped != 2 || agent.Backlog != 0 {
		t.Fatalf("shipped/backlog = %d/%d", agent.Shipped, agent.Backlog)
	}
	for _, s := range subs {
		if !sys.Catalog().HasReplica("run001", s) {
			t.Fatalf("subscriber %s missing replica", s.Name)
		}
	}
	if agent.MaxDelay <= 0 || agent.LastDelivery() <= 0 {
		t.Fatal("delay accounting")
	}
}

func TestAgentBacklogGrowsWhenLinkTooSlow(t *testing.T) {
	// The T0/T1 mechanism in miniature: production rate exceeds the
	// link's drain rate, so the agent backlog grows monotonically.
	e := des.NewEngine()
	g := topology.NewGrid(e)
	t0 := g.AddSite("t0", topology.SiteSpec{DiskBytes: 1e15, DiskBps: 1e9, DiskChans: 8})
	t1 := g.AddSite("t1", topology.SiteSpec{DiskBytes: 1e15, DiskBps: 1e9, DiskChans: 8})
	g.Link(t0, t1, 1e3, 0.001) // 1 KB/s: hopeless
	g.Topo.ComputeRoutes()
	net := netsim.NewNetwork(e, g.Topo)
	sys := NewSystem(e, net)
	sys.AddStore(t0, EvictLRU, ModePull)
	sys.AddStore(t1, EvictLRU, ModePull)
	agent := sys.NewAgent(t0, []*topology.Site{t1})
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("f%03d", i)
		e.Schedule(float64(i), func() { agent.Produce(&File{Name: name, Bytes: 1e5}) })
	}
	e.RunUntil(20)
	if agent.Backlog < 8 {
		t.Fatalf("backlog = %d, want ≥8 on a saturated link", agent.Backlog)
	}
}

func TestModeAndPolicyStrings(t *testing.T) {
	if ModeNone.String() != "none" || ModePull.String() != "pull" || ModePush.String() != "push" {
		t.Fatal("mode strings")
	}
	if Mode(9).String() == "" || EvictPolicy(9).String() == "" {
		t.Fatal("unknown strings")
	}
	if EvictLRU.String() != "lru" || EvictLFU.String() != "lfu" || EvictEconomic.String() != "economic" {
		t.Fatal("policy strings")
	}
}

func TestSystemValidation(t *testing.T) {
	e := des.NewEngine()
	g, net := dataGrid(e, 1e9)
	sys := NewSystem(e, net)
	sys.AddStore(g.Sites[0], EvictLRU, ModePull)
	for name, fn := range map[string]func(){
		"dup store":   func() { sys.AddStore(g.Sites[0], EvictLRU, ModePull) },
		"bad push":    func() { sys.SetPushConfig(PushConfig{}) },
		"no store":    func() { sys.Place(&File{Name: "x", Bytes: 1}, g.Sites[2]) },
		"master size": func() { sys.Place(&File{Name: "huge", Bytes: 1e18}, g.Sites[0]) },
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
