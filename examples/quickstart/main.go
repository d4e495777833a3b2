// Quickstart: simulate an M/M/1 queue with the process-oriented API
// and validate the measurement against queueing theory — the
// ten-minute introduction to the framework's kernel, and the smallest
// instance of the paper's validation methodology (claim C5).
package main

import (
	"fmt"
	"os"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/queueing"
)

func main() {
	const (
		lambda    = 0.8 // arrivals per second
		mu        = 1.0 // services per second
		customers = 100000
	)

	e := des.NewEngine(des.WithSeed(1))
	arrivals := e.Stream("arrivals")
	services := e.Stream("services")

	server := e.NewResource("server", 1)
	var sojourn metrics.Summary
	var inSystem metrics.TimeWeighted

	population := 0
	// The arrival generator is itself a simulated process: it spawns
	// one customer process per arrival.
	e.Spawn("generator", func(p *des.Process) {
		for i := 0; i < customers; i++ {
			p.Hold(arrivals.Exp(lambda))
			population++
			inSystem.Set(e.Now(), float64(population))
			e.Spawn(fmt.Sprintf("cust%06d", i), func(c *des.Process) {
				arrived := c.Now()
				server.Acquire(c, 1)
				c.Hold(services.Exp(mu))
				server.Release(1)
				population--
				inSystem.Set(e.Now(), float64(population))
				sojourn.Observe(c.Now() - arrived)
			})
		}
	})
	end := e.Run()

	theory, err := queueing.NewMM1(lambda, mu)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	t := metrics.NewTable("M/M/1 quickstart: simulation vs theory",
		"measure", "simulated", "analytic")
	t.AddRowf("mean sojourn W", sojourn.Mean(), theory.W)
	t.AddRowf("mean population L", inSystem.Mean(end), theory.L)
	t.AddRowf("server utilization", server.Utilization(), theory.Rho)
	t.AddRowf("customers", sojourn.N(), customers)
	if err := t.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nsimulated %v time units, %d events\n", end, e.Stats().Executed)
}
