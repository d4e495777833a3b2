package replication

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// Mode selects the replication strategy a site follows when a local
// job accesses a file it does not hold.
type Mode int

const (
	// ModeNone streams the data from the nearest replica without
	// storing it (remote I/O only).
	ModeNone Mode = iota
	// ModePull fetches and stores a replica on first access (the
	// OptorSim family: what gets dropped is the eviction policy's
	// decision; under EvictEconomic admission itself may be refused).
	ModePull
	// ModePush is ModeNone for the consumer side, paired with
	// proactive pushes from sites holding popular files (ChicagoSim).
	ModePush
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModePull:
		return "pull"
	case ModePush:
		return "push"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrNoReplica is returned by Access when no site holds the file.
var ErrNoReplica = errors.New("replication: no replica of file exists")

// PushConfig tunes ModePush.
type PushConfig struct {
	// Threshold is the number of accesses served at a holding site
	// that marks a file as popular (each multiple triggers a push).
	Threshold int
	// Fanout is how many additional sites receive a pushed replica
	// per trigger (nearest sites lacking the file first).
	Fanout int
}

// System is the Data Grid replication service: one catalog, one store
// per participating site, and the access protocol tying them to the
// network fabric.
type System struct {
	e       *des.Engine
	fabric  netsim.Fabric
	catalog *Catalog
	stores  []*Store // deterministic iteration order
	bySite  map[*topology.Site]*Store
	mode    map[*topology.Site]Mode
	push    PushConfig

	// served[site][file] counts accesses served by that holder, for
	// push popularity.
	served map[*topology.Site]map[string]int

	// Stats.
	LocalHits   uint64
	RemoteReads uint64
	Pulls       uint64
	Pushes      uint64
	WANBytes    float64
}

// NewSystem creates a replication system over the fabric.
func NewSystem(e *des.Engine, fabric netsim.Fabric) *System {
	return &System{
		e:       e,
		fabric:  fabric,
		catalog: NewCatalog(),
		bySite:  make(map[*topology.Site]*Store),
		mode:    make(map[*topology.Site]Mode),
		served:  make(map[*topology.Site]map[string]int),
		push:    PushConfig{Threshold: 3, Fanout: 1},
	}
}

// Catalog exposes the replica catalog.
func (sys *System) Catalog() *Catalog { return sys.catalog }

// SetPushConfig tunes push replication.
func (sys *System) SetPushConfig(cfg PushConfig) {
	if cfg.Threshold <= 0 || cfg.Fanout <= 0 {
		panic("replication: PushConfig values must be positive")
	}
	sys.push = cfg
}

// AddStore registers a site as a replica store with the given eviction
// policy and access mode.
func (sys *System) AddStore(site *topology.Site, policy EvictPolicy, mode Mode) *Store {
	if sys.bySite[site] != nil {
		panic(fmt.Sprintf("replication: store for %q already exists", site.Name))
	}
	st := newStore(site, policy)
	sys.stores = append(sys.stores, st)
	sys.bySite[site] = st
	sys.mode[site] = mode
	return st
}

// Store returns the site's store, or nil.
func (sys *System) Store(site *topology.Site) *Store { return sys.bySite[site] }

// Place registers a logical file and installs its master copy at the
// site (pinned: master copies are never evicted). It panics when the
// master does not fit.
func (sys *System) Place(f *File, site *topology.Site) {
	sys.catalog.Define(f)
	st := sys.bySite[site]
	if st == nil {
		panic(fmt.Sprintf("replication: Place at site %q without store", site.Name))
	}
	if !st.admit(f, sys.e.Now(), math.Inf(1), true, func(name string) {
		sys.catalog.RemoveReplica(name, site)
	}) {
		panic(fmt.Sprintf("replication: master copy of %q does not fit at %q", f.Name, site.Name))
	}
	sys.catalog.AddReplica(f.Name, site)
}

// nearestHolder returns the holder with the lowest network latency
// from site (ties by registration order), or nil.
func (sys *System) nearestHolder(name string, site *topology.Site) *topology.Site {
	var best *topology.Site
	bestLat := math.Inf(1)
	for _, h := range sys.catalog.Holders(name) {
		if h == site {
			return h
		}
		lat := sys.fabric.Topo().PathLatency(site.Net, h.Net)
		if lat >= 0 && lat < bestLat {
			bestLat = lat
			best = h
		}
	}
	return best
}

// Access makes the named file's contents available to a job running at
// the site, blocking the process for all induced disk and network
// time. It returns ErrNoReplica when the file exists nowhere.
func (sys *System) Access(p *des.Process, site *topology.Site, name string) error {
	var err error
	p.Await(func(resume func()) {
		if err = sys.AccessThen(site, name, resume); err != nil {
			resume()
		}
	})
	return err
}

// AccessThen is the continuation form of Access: then runs in the event
// where a process blocked in Access would resume. A missing file is
// known before any simulated time passes, so it is returned at once and
// then never runs.
func (sys *System) AccessThen(site *topology.Site, name string, then func()) error {
	f := sys.catalog.File(name)
	if f == nil {
		return fmt.Errorf("%w: %q undefined", ErrNoReplica, name)
	}
	st := sys.bySite[site]
	if st != nil && st.Has(name) {
		st.touch(name, sys.e.Now())
		site.Disk.ReadThen(f.Bytes, func() {
			sys.LocalHits++
			sys.recordServed(site, f)
			then()
		})
		return nil
	}
	holder := sys.nearestHolder(name, site)
	if holder == nil {
		return fmt.Errorf("%w: %q", ErrNoReplica, name)
	}
	// Read at the holder, ship over the WAN.
	holder.Disk.ReadThen(f.Bytes, func() {
		sys.fabric.SendThen(holder.Net, site.Net, f.Bytes, func() {
			sys.WANBytes += f.Bytes
			sys.recordServed(holder, f)
			done := func(pulled bool) {
				if pulled {
					sys.Pulls++
				}
				sys.RemoteReads++
				then()
			}
			if sys.mode[site] == ModePull && st != nil {
				sys.storeThen(st, f, done)
				return
			}
			done(false)
		})
	})
	return nil
}

// storeThen admits f to st (evicting by its policy) and, when admitted,
// writes it to the site's disk and adds the replica to the catalog.
// then runs with the outcome: after the write, or at once on refusal.
func (sys *System) storeThen(st *Store, f *File, then func(stored bool)) {
	site := st.Site
	if !st.admit(f, sys.e.Now(), 1.0, false, func(victim string) {
		sys.catalog.RemoveReplica(victim, site)
	}) {
		then(false)
		return
	}
	site.Disk.WriteThen(f.Bytes, func() {
		sys.catalog.AddReplica(f.Name, site)
		then(true)
	})
}

// recordServed counts an access served by holder and, in push mode,
// triggers proactive replication of popular files.
func (sys *System) recordServed(holder *topology.Site, f *File) {
	m := sys.served[holder]
	if m == nil {
		m = make(map[string]int)
		sys.served[holder] = m
	}
	m[f.Name]++
	if sys.mode[holder] != ModePush {
		return
	}
	if m[f.Name]%sys.push.Threshold != 0 {
		return
	}
	sys.pushReplicas(holder, f)
}

// pushReplicas ships the file from holder to the Fanout nearest stores
// lacking it, asynchronously.
func (sys *System) pushReplicas(holder *topology.Site, f *File) {
	type cand struct {
		st  *Store
		lat float64
	}
	var cands []cand
	for _, st := range sys.stores {
		if st.Site == holder || st.Has(f.Name) {
			continue
		}
		lat := sys.fabric.Topo().PathLatency(holder.Net, st.Site.Net)
		if lat < 0 {
			continue
		}
		cands = append(cands, cand{st, lat})
	}
	// Selection sort by latency (tiny lists; stable by store order).
	for i := 0; i < len(cands) && i < sys.push.Fanout; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].lat < cands[best].lat {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
		target := cands[i].st
		sys.e.ScheduleNamed("push", 0, func() {
			holder.Disk.ReadThen(f.Bytes, func() {
				sys.fabric.SendThen(holder.Net, target.Site.Net, f.Bytes, func() {
					sys.WANBytes += f.Bytes
					if target.Has(f.Name) {
						return
					}
					sys.storeThen(target, f, func(stored bool) {
						if stored {
							sys.Pushes++
						}
					})
				})
			})
		})
	}
}

// Agent is MONARC's data replication agent: it watches a source site
// for newly produced files and ships each to every subscriber site,
// serializing on the available network capacity. Produce is called by
// the workload when a data product materializes at the source.
type Agent struct {
	sys         *System
	source      *topology.Site
	subscribers []*topology.Site

	// Stats.
	Shipped  uint64
	Backlog  int     // files queued or in flight
	MaxDelay float64 // worst observed production→delivery delay
	lastDone float64 // completion time of the most recent delivery
}

// NewAgent creates a replication agent from source to subscribers.
func (sys *System) NewAgent(source *topology.Site, subscribers []*topology.Site) *Agent {
	return &Agent{sys: sys, source: source, subscribers: subscribers}
}

// Produce registers the file at the source (master copy) and ships a
// replica to every subscriber asynchronously: each shipment starts in
// its own event, crosses the fabric and is stored if the subscriber's
// store admits it.
func (a *Agent) Produce(f *File) {
	a.sys.Place(f, a.source)
	produced := a.sys.e.Now()
	for _, sub := range a.subscribers {
		sub := sub
		a.Backlog++
		a.sys.e.ScheduleNamed("agent", 0, func() {
			a.sys.fabric.SendThen(a.source.Net, sub.Net, f.Bytes, func() {
				a.sys.WANBytes += f.Bytes
				if st := a.sys.bySite[sub]; st != nil {
					a.sys.storeThen(st, f, func(bool) { a.delivered(produced) })
					return
				}
				a.delivered(produced)
			})
		})
	}
}

// delivered books one finished shipment of a file produced at time
// produced.
func (a *Agent) delivered(produced float64) {
	now := a.sys.e.Now()
	a.Backlog--
	a.Shipped++
	if delay := now - produced; delay > a.MaxDelay {
		a.MaxDelay = delay
	}
	a.lastDone = now
}

// LastDelivery returns the completion time of the latest delivery.
func (a *Agent) LastDelivery() float64 { return a.lastDone }
