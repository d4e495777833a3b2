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
	k       *kind
	fabric  netsim.Fabric
	catalog *Catalog
	stores  []*Store // deterministic iteration order
	bySite  map[*topology.Site]*Store
	mode    map[*topology.Site]Mode
	push    PushConfig

	// served[site][file slot] counts accesses served by a push-mode
	// holder, for popularity.
	served map[*topology.Site][]int

	// Stats.
	LocalHits   uint64
	RemoteReads uint64
	Pulls       uint64
	Pushes      uint64
	WANBytes    float64
}

// NewSystem creates a replication system over the fabric.
func NewSystem(e *des.Engine, fabric netsim.Fabric) *System {
	sys := &System{
		e:       e,
		k:       des.PerEngine(e, newKind),
		fabric:  fabric,
		catalog: NewCatalog(),
		bySite:  make(map[*topology.Site]*Store),
		mode:    make(map[*topology.Site]Mode),
		served:  make(map[*topology.Site][]int),
		push:    PushConfig{Threshold: 3, Fanout: 1},
	}
	created(sys)
	return sys
}

// created sees every System a model builds; tests set it.
var created = func(*System) {}

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
	st := newStore(site, policy, sys.catalog)
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
	if !st.admit(f, sys.e.Now(), math.Inf(1), true) {
		panic(fmt.Sprintf("replication: master copy of %q does not fit at %q", f.Name, site.Name))
	}
	sys.catalog.addReplica(f, site)
}

// nearestHolder returns the holder of f with the lowest network
// latency from site (ties by registration order), or nil.
func (sys *System) nearestHolder(f *File, site *topology.Site) *topology.Site {
	var best *topology.Site
	bestLat := math.Inf(1)
	for _, h := range sys.catalog.holders[f.slot] {
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
	p.Await(func(op des.Op, arg []byte) {
		if err = sys.AccessOp(site, name, op, arg); err != nil {
			sys.e.Call(op, arg)
		}
	})
	return err
}

// AccessOp is the op form of Access: op(arg) runs in the event where a
// process blocked in Access would resume. A missing file is known
// before any simulated time passes, so it is returned at once and op
// never runs.
func (sys *System) AccessOp(site *topology.Site, name string, op des.Op, arg []byte) error {
	f := sys.catalog.File(name)
	if f == nil {
		return fmt.Errorf("%w: %q undefined", ErrNoReplica, name)
	}
	st := sys.bySite[site]
	if st != nil && st.entry(f) != nil {
		st.touch(f, sys.e.Now())
		self := sys.newJob(job{site: site, f: f, then: op, arg: arg})
		site.Disk.ReadOp(f.Bytes, sys.k.localRead, self)
		return nil
	}
	holder := sys.nearestHolder(f, site)
	if holder == nil {
		return fmt.Errorf("%w: %q", ErrNoReplica, name)
	}
	// Read at the holder, ship over the WAN.
	self := sys.newJob(job{site: site, holder: holder, st: st, f: f, shipped: sys.k.fetched, then: op, arg: arg})
	sys.k.fetch(self)
	return nil
}

// kind is the package's state on one engine: the ops that step every
// access, push and agent shipment on it, and their free list.
type kind struct {
	e    *des.Engine
	jobs des.Table[job]

	localRead, fetched, pulled des.Op // an access
	fetchOp, sendOp            des.Op // any job that moves a file
	pushArrived, pushStored    des.Op // a push
	shipArrived, shipStored    des.Op // an agent shipment
}

// job is one access, push or agent shipment in progress.
type job struct {
	sys      *System
	site     *topology.Site // where the file goes
	holder   *topology.Site // where it is read, for an access or push
	st       *Store         // where it may be stored: the site's store, or nil
	f        *File
	shipped  des.Op // what follows the WAN leg
	agent    *Agent
	produced float64 // when the agent's file was produced
	then     des.Op  // an access's continuation
	arg      []byte
}

func newKind(e *des.Engine) *kind {
	k := &kind{e: e}
	k.localRead = e.RegisterOp("replication:local", k.localHit)
	k.fetched = e.RegisterOp("replication:fetched", k.fetchDone)
	k.pulled = e.RegisterOp("replication:pulled", k.pullDone)
	k.fetchOp = e.RegisterOp("replication:fetch", k.fetch)
	k.sendOp = e.RegisterOp("replication:send", k.send)
	k.pushArrived = e.RegisterOp("replication:push-arrived", k.pushDelivered)
	k.pushStored = e.RegisterOp("replication:push-stored", k.pushDone)
	k.shipArrived = e.RegisterOp("agent:arrived", k.shipDelivered)
	k.shipStored = e.RegisterOp("agent:stored", k.shipDone)
	return k
}

func (sys *System) newJob(j job) []byte {
	p, self := sys.k.jobs.Get()
	j.sys = sys
	*p = j
	return self
}

// endAccess frees an access's record and continues its job.
func (k *kind) endAccess(self []byte) {
	j := k.jobs.At(self)
	then, arg := j.then, j.arg
	k.jobs.Put(self)
	k.e.Call(then, arg)
}

// localHit ends an access the site's own store served.
func (k *kind) localHit(self []byte) {
	j := k.jobs.At(self)
	j.sys.LocalHits++
	j.sys.recordServed(j.site, j.f)
	k.endAccess(self)
}

// fetch reads the file at the holder, then ships it.
func (k *kind) fetch(self []byte) {
	j := k.jobs.At(self)
	j.holder.Disk.ReadOp(j.f.Bytes, k.sendOp, self)
}

// send ships the file from the holder to the site over the fabric.
func (k *kind) send(self []byte) {
	j := k.jobs.At(self)
	j.sys.fabric.SendOp(j.holder.Net, j.site.Net, j.f.Bytes, j.shipped, self)
}

// fetchDone ends a remote access's WAN leg: a pull site stores what it
// fetched.
func (k *kind) fetchDone(self []byte) {
	j := k.jobs.At(self)
	sys := j.sys
	sys.WANBytes += j.f.Bytes
	sys.recordServed(j.holder, j.f)
	if sys.mode[j.site] == ModePull && j.st != nil && sys.store(j, k.pulled, self) {
		return
	}
	sys.RemoteReads++
	k.endAccess(self)
}

// pullDone ends a remote access whose file the site stored.
func (k *kind) pullDone(self []byte) {
	j := k.jobs.At(self)
	j.stored()
	j.sys.Pulls++
	j.sys.RemoteReads++
	k.endAccess(self)
}

// store admits j's file to j.st, evicting by its policy, and when
// admitted writes it to the site's disk, then runs op(self), which
// adds the replica to the catalog (job.stored). It reports whether the
// store admitted the file.
func (sys *System) store(j *job, op des.Op, self []byte) bool {
	if !j.st.admit(j.f, sys.e.Now(), 1.0, false) {
		return false
	}
	j.st.Site.Disk.WriteOp(j.f.Bytes, op, self)
	return true
}

// stored records the replica store wrote.
func (j *job) stored() { j.sys.catalog.addReplica(j.f, j.st.Site) }

// recordServed counts an access served by a push-mode holder and
// triggers proactive replication of the files it finds popular. Only
// push holders read the counts, and a site's mode is fixed when its
// store is added, so no other holder counts.
func (sys *System) recordServed(holder *topology.Site, f *File) {
	if sys.mode[holder] == ModePush && sys.countServed(holder, f)%sys.push.Threshold == 0 {
		sys.pushReplicas(holder, f)
	}
}

// countServed counts one more access to f served at holder and returns
// the count.
func (sys *System) countServed(holder *topology.Site, f *File) int {
	m := grown(sys.served[holder], f.slot)
	sys.served[holder] = m
	m[f.slot]++
	return m[f.slot]
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
		if st.Site == holder || st.entry(f) != nil {
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
		self := sys.newJob(job{site: target.Site, holder: holder, st: target, f: f, shipped: sys.k.pushArrived})
		sys.e.ScheduleOp(0, sys.k.fetchOp, self)
	}
}

// pushDelivered ends a push's WAN leg: the target stores the file
// unless it got a copy meanwhile.
func (k *kind) pushDelivered(self []byte) {
	j := k.jobs.At(self)
	j.sys.WANBytes += j.f.Bytes
	if j.st.entry(j.f) != nil || !j.sys.store(j, k.pushStored, self) {
		k.jobs.Put(self)
	}
}

// pushDone ends a push whose file the target stored.
func (k *kind) pushDone(self []byte) {
	j := k.jobs.At(self)
	j.stored()
	j.sys.Pushes++
	k.jobs.Put(self)
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
		a.Backlog++
		self := a.sys.newJob(job{site: sub, holder: a.source, f: f, shipped: a.sys.k.shipArrived, agent: a, produced: produced})
		a.sys.e.ScheduleOp(0, a.sys.k.sendOp, self)
	}
}

// shipDelivered ends a shipment's WAN leg: the subscriber's store, if
// it has one, stores the file.
func (k *kind) shipDelivered(self []byte) {
	j := k.jobs.At(self)
	j.sys.WANBytes += j.f.Bytes
	if j.st = j.sys.bySite[j.site]; j.st != nil && j.sys.store(j, k.shipStored, self) {
		return
	}
	j.agent.delivered(j.produced)
	k.jobs.Put(self)
}

// shipDone ends a shipment whose file the subscriber stored.
func (k *kind) shipDone(self []byte) {
	j := k.jobs.At(self)
	j.stored()
	j.agent.delivered(j.produced)
	k.jobs.Put(self)
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
