// Package topology composes the host and network substrates into the
// distributed-system shapes the surveyed simulators model:
//
//   - the Bricks "central model", where all jobs are processed at a
//     single central site fed by client sites;
//   - the MONARC "tier model", the LHC computing hierarchy of regional
//     centres (T0 at CERN, national T1s, institutional T2s) "grouped
//     into levels called tiers, mostly based on their resources";
//   - the EU-DataGrid flat site grid OptorSim simplifies, "several
//     sites, each of which may provide resources for submitted jobs";
//   - P2P overlays (ring with chord fingers, random graphs).
//
// A Site bundles a network attachment point with compute, disk,
// optional database and optional mass-storage elements — the four
// host-resource classes of the paper's taxonomy.
package topology

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/resources"
)

// SiteSpec describes the resources to provision at a site.
type SiteSpec struct {
	Cores     int
	CoreSpeed float64 // ops/second per core
	DiskBytes float64
	DiskBps   float64
	DiskChans int
	// Optional elements; zero values omit them.
	DBBytes   float64
	DBBps     float64
	DBOH      float64
	DBWorkers int
	TapeBytes float64
	TapeBps   float64
	TapeMount float64
	TapeDrive int
}

// Site is a provisioned location in the grid.
type Site struct {
	Name string
	Net  *netsim.Node
	CPU  *resources.CPU
	Disk *resources.Disk
	DB   *resources.Database    // nil unless provisioned
	Tape *resources.MassStorage // nil unless provisioned
	Tier int                    // tier level (0 = top); -1 when not tiered
	Spec SiteSpec
}

// Grid is a set of sites over a shared network topology.
type Grid struct {
	Engine *des.Engine
	Topo   *netsim.Topology
	Sites  []*Site

	byName map[string]*Site
}

// NewGrid returns an empty grid.
func NewGrid(e *des.Engine) *Grid {
	return &Grid{
		Engine: e,
		Topo:   netsim.NewTopology(),
		byName: make(map[string]*Site),
	}
}

// AddSite provisions a site per spec and attaches it to the network:
// a space-shared CPU, a disk with no seek time, and the optional
// database and tape elements.
func (g *Grid) AddSite(name string, spec SiteSpec) *Site {
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("topology: duplicate site %q", name))
	}
	s := &Site{
		Name: name,
		Net:  g.Topo.AddNode(name),
		Tier: -1,
		Spec: spec,
	}
	if spec.Cores > 0 {
		s.CPU = resources.NewCPU(g.Engine, name+":cpu", spec.Cores, spec.CoreSpeed, resources.SpaceShared)
	}
	if spec.DiskBytes > 0 {
		chans := spec.DiskChans
		if chans == 0 {
			chans = 1
		}
		s.Disk = resources.NewDisk(g.Engine, name+":disk", spec.DiskBytes, spec.DiskBps, 0, chans)
	}
	if spec.DBBytes > 0 {
		workers := spec.DBWorkers
		if workers == 0 {
			workers = 1
		}
		s.DB = resources.NewDatabase(g.Engine, name+":db", spec.DBBytes, spec.DBBps, spec.DBOH, workers)
	}
	if spec.TapeBytes > 0 {
		drives := spec.TapeDrive
		if drives == 0 {
			drives = 1
		}
		s.Tape = resources.NewMassStorage(g.Engine, name+":tape", spec.TapeBytes, spec.TapeBps, spec.TapeMount, drives)
	}
	g.Sites = append(g.Sites, s)
	g.byName[name] = s
	return s
}

// Site returns the site with the given name, or nil.
func (g *Grid) Site(name string) *Site { return g.byName[name] }

// Link joins two sites' network nodes (full duplex).
func (g *Grid) Link(a, b *Site, bps, latency float64) {
	g.Topo.Connect(a.Net, b.Net, bps, latency)
}

// CentralModel builds the Bricks topology: one central server site and
// n client sites in a star, each client connected to the centre with
// the given link parameters. Clients get clientSpec resources (often
// compute-free), the centre gets serverSpec.
func CentralModel(e *des.Engine, n int, serverSpec, clientSpec SiteSpec, bps, latency float64) *Grid {
	g := NewGrid(e)
	server := g.AddSite("central", serverSpec)
	for i := 0; i < n; i++ {
		c := g.AddSite(fmt.Sprintf("client%02d", i), clientSpec)
		g.Link(c, server, bps, latency)
	}
	g.Topo.ComputeRoutes()
	return g
}

// TierSpec describes one level of the MONARC tier hierarchy.
type TierSpec struct {
	Count     int // sites at this level (per parent for levels > 0... see TierModel)
	Spec      SiteSpec
	UplinkBps float64 // link to the parent tier
	UplinkLat float64
}

// TierModel builds the MONARC hierarchy: one T0 site, fanouts[1].Count
// T1 sites linked to T0, and for each T1, fanouts[2].Count T2 sites,
// and so on. Site names are "T0", "T1.0", "T2.0.1", ...
func TierModel(e *des.Engine, levels []TierSpec) *Grid {
	if len(levels) == 0 || levels[0].Count != 1 {
		panic("topology: TierModel requires levels[0].Count == 1 (a single T0)")
	}
	g := NewGrid(e)
	t0 := g.AddSite("T0", levels[0].Spec)
	t0.Tier = 0
	parents := []*Site{t0}
	for lvl := 1; lvl < len(levels); lvl++ {
		var next []*Site
		for pi, parent := range parents {
			for i := 0; i < levels[lvl].Count; i++ {
				name := fmt.Sprintf("T%d.%d", lvl, pi*levels[lvl].Count+i)
				s := g.AddSite(name, levels[lvl].Spec)
				s.Tier = lvl
				g.Link(s, parent, levels[lvl].UplinkBps, levels[lvl].UplinkLat)
				next = append(next, s)
			}
		}
		parents = next
	}
	g.Topo.ComputeRoutes()
	return g
}

// TierSites returns the sites at the given tier level, in creation
// order.
func (g *Grid) TierSites(level int) []*Site {
	var out []*Site
	for _, s := range g.Sites {
		if s.Tier == level {
			out = append(out, s)
		}
	}
	return out
}

// SiteGrid builds the flat EU-DataGrid shape OptorSim uses: n sites
// connected in a ring, plus chordal shortcuts every `chord` positions
// when chord > 1 (0 or 1 gives a plain ring).
func SiteGrid(e *des.Engine, n int, spec SiteSpec, bps, latency float64, chord int) *Grid {
	if n < 2 {
		panic("topology: SiteGrid requires n >= 2")
	}
	g := NewGrid(e)
	for i := 0; i < n; i++ {
		g.AddSite(fmt.Sprintf("site%02d", i), spec)
	}
	for i := 0; i < n; i++ {
		g.Link(g.Sites[i], g.Sites[(i+1)%n], bps, latency)
	}
	if chord > 1 {
		for i := 0; i < n; i += chord {
			j := (i + n/2) % n
			if j != i && j != (i+1)%n {
				g.Link(g.Sites[i], g.Sites[j], bps, latency)
			}
		}
	}
	g.Topo.ComputeRoutes()
	return g
}

// P2PRing builds an n-node overlay ring with finger links at powers of
// two (a Chord-like structure), returning the grid; sites carry no
// compute/storage unless spec provides them.
func P2PRing(e *des.Engine, n int, spec SiteSpec, bps, latency float64) *Grid {
	if n < 2 {
		panic("topology: P2PRing requires n >= 2")
	}
	g := NewGrid(e)
	for i := 0; i < n; i++ {
		g.AddSite(fmt.Sprintf("peer%03d", i), spec)
	}
	for i := 0; i < n; i++ {
		g.Link(g.Sites[i], g.Sites[(i+1)%n], bps, latency)
	}
	for step := 2; step < n/2; step *= 2 {
		for i := 0; i < n; i++ {
			j := (i + step) % n
			g.Link(g.Sites[i], g.Sites[j], bps, latency)
		}
	}
	g.Topo.ComputeRoutes()
	return g
}
