// Command lsnode runs one node of a TCP-distributed simulation: either
// the coordinator or a worker owning a subset of the logical
// processes. The model is the PHOLD benchmark (the standard workload
// of the parallel/distributed DES literature).
//
// Example — 8 LPs across two workers on one machine:
//
//	lsnode -mode coordinator -addr :9191 -lps 8 -workers 2 -horizon 200 &
//	lsnode -mode worker -addr localhost:9191 -own 0,1,2,3 &
//	lsnode -mode worker -addr localhost:9191 -own 4,5,6,7
//
// The same binary works across hosts; the run is deterministic for a
// given seed regardless of how LPs are partitioned. lsnode -h lists
// every flag; the ones lssim's distphold personality also has are the
// same flags (cmd/internal/front).
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"

	"repro/cmd/internal/front"
	"repro/internal/distsim"
	"repro/internal/metrics"
)

func main() {
	r := front.Lsnode(flag.CommandLine)
	flag.Parse()
	var node func(*front.Run) error
	switch r.Mode {
	case "coordinator":
		node = coordinate
	case "worker":
		node = work
	default:
		fmt.Fprintln(os.Stderr, "lsnode: -mode must be coordinator or worker")
		flag.Usage()
		os.Exit(2)
	}
	err := r.Validate()
	if err == nil {
		err = node(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsnode:", err)
		os.Exit(1)
	}
}

// coordinate serves the run to the workers that dial in.
func coordinate(r *front.Run) error {
	ln, err := net.Listen("tcp", r.Addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("lsnode: coordinating %d LPs over %d workers on %s\n", r.Coord.NLPs, r.Workers, ln.Addr())
	t := metrics.NewTable("Distributed run complete", "metric", "value")
	if err := r.Serve(t, ln); err != nil {
		return err
	}
	return t.Write(os.Stdout)
}

// work runs the worker owning -own until the coordinator releases it.
func work(r *front.Run) error {
	w := r.NewWorker(r.Own...)
	if r.MetricsAddr != "" {
		ms, err := front.ServeMetrics(r.MetricsAddr, func() any { return w.WireSnapshot() })
		if err != nil {
			return err
		}
		defer ms.Close()
	}
	fmt.Printf("lsnode: worker owning LPs %v dialing %s (%d threads)\n", r.Own, r.Addr, max(w.Threads, 1))
	// A worker started before its coordinator retries the dial with
	// capped exponential backoff; one that loses its coordinator keeps
	// redialing in a bounded loop so a restarted one can re-adopt it.
	if err := w.Run(r.Addr); err != nil {
		if errors.Is(err, distsim.ErrCoordinatorLost) {
			// The retry budget ran out: report the local progress that
			// would otherwise die with the process, then fail.
			fmt.Fprintf(os.Stderr, "lsnode: parked out with %d events executed locally (incomplete)\n", w.Stats().EventsExecuted)
		}
		return err
	}
	if w.Threads > 1 {
		// -threads is an upper bound: say what the pool made of it.
		fmt.Printf("lsnode: pool: %s\n", w.PoolStats())
	}
	fmt.Println("lsnode: worker done")
	return nil
}
