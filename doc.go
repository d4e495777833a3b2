// Package lsds is a simulation framework for large scale distributed
// systems, reproducing "New Trends in Large Scale Distributed Systems
// Simulation" (Dobre, Pop, Cristea — ICPP 2009). Models are specified
// as a library: the internal/* substrates (des, netsim, resources,
// topology, scheduler, replication, workload, ...), which the six
// simulator personalities, the experiments and the runnable programs
// under examples/ all wire together directly. This package holds only
// the root-level benchmarks and the determinism guard.
package lsds
