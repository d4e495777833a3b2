// Package lsds is a simulation framework for large scale distributed
// systems, reproducing "New Trends in Large Scale Distributed Systems
// Simulation" (Dobre, Pop, Cristea — ICPP 2009).
//
// The framework provides a deterministic discrete-event kernel with
// pluggable future-event-list structures (4-ary heap, sorted list,
// skip list, splay tree, calendar queue, ladder queue), a
// process-oriented layer mapping simulated activities onto goroutines
// (MONARC-style "active objects"), flow-level and packet-level network
// models, host resources (time-/space-shared CPUs, disks, tape,
// database servers), Grid middleware (cluster queue disciplines,
// brokering policies, a computational-economy broker), a Data Grid
// replication substrate (catalog, eviction policies, pull/push
// replication, replication agents), workload and monitoring input
// layers, a conservative parallel execution engine, and the paper's
// taxonomy as a typed data model.
//
// Six personality packages configure this machinery into the designs
// the paper surveys — Bricks, OptorSim, SimGrid, GridSim, ChicagoSim
// and MONARC 2 — and internal/experiments regenerates the paper's
// Table 1 plus its quantitative claims (E1–E10; see DESIGN.md and
// EXPERIMENTS.md).
//
// This top-level package re-exports the primary entry points so that
// scenarios read naturally:
//
//	sim := lsds.New(lsds.DefaultConfig())
//	site := sim.Grid.AddSite("cluster", lsds.SiteSpec{Cores: 16, CoreSpeed: 1e9})
//	...
//	sim.Run()
//
// See the runnable programs under examples/ for complete scenarios.
package lsds

import (
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/eventq"
	"repro/internal/netsim"
	"repro/internal/queueing"
	"repro/internal/replication"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/taxonomy"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Core facade.
type (
	// Simulation is a fully wired scenario (see internal/core).
	Simulation = core.Simulation
	// Config tunes a Simulation.
	Config = core.Config
)

// New creates a simulation.
func New(cfg Config) *Simulation { return core.New(cfg) }

// DefaultConfig returns the default simulation configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// SelfProfile positions this framework in the paper's taxonomy.
func SelfProfile() *taxonomy.Profile { return core.SelfProfile() }

// Kernel types.
type (
	// Engine is the discrete-event kernel.
	Engine = des.Engine
	// Process is a simulated activity (goroutine-backed).
	Process = des.Process
	// Timer is a cancellable scheduled event.
	Timer = des.Timer
	// QueueKind selects the future-event-list structure.
	QueueKind = eventq.Kind
	// Rand is the deterministic random source.
	Rand = rng.Source
)

// Topology and resources.
type (
	// Grid is a set of provisioned sites over a network.
	Grid = topology.Grid
	// Site is one provisioned location.
	Site = topology.Site
	// SiteSpec describes a site's resources.
	SiteSpec = topology.SiteSpec
	// Fabric abstracts the network granularities.
	Fabric = netsim.Fabric
)

// Middleware.
type (
	// Job is a unit of grid work.
	Job = scheduler.Job
	// Cluster is a local resource manager.
	Cluster = scheduler.Cluster
	// Broker places jobs on sites.
	Broker = scheduler.Broker
	// Policy selects execution sites.
	Policy = scheduler.Policy
)

// Data Grid.
type (
	// File is a logical Data Grid file.
	File = replication.File
	// ReplicaCatalog maps files to holding sites.
	ReplicaCatalog = replication.Catalog
	// ReplicationSystem is the Data Grid replication service.
	ReplicationSystem = replication.System
)

// Workload.
type (
	// Activity is an open arrival process ("Activity object").
	Activity = workload.Activity
	// JobMix samples jobs from weighted classes.
	JobMix = workload.Mix
)

// Analytics.
type (
	// MM1 holds M/M/1 steady-state measures for validation.
	MM1 = queueing.MM1
	// TaxonomyProfile is one simulator's position in the taxonomy.
	TaxonomyProfile = taxonomy.Profile
)
