package scheduler

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Broker is a resource broker: it accepts jobs, places them with its
// Policy, stages input data from the job's origin site to the chosen
// execution site over the network fabric, runs them on the site's
// cluster, returns output data, and records statistics.
//
// Several brokers may share the same grid — GridSim's design point
// ("the existence of several brokers") and SimGrid's interacting
// scheduling agents are both modeled as multiple Brokers contending
// for the same clusters.
type Broker struct {
	Name   string
	e      *des.Engine
	fabric netsim.Fabric
	ctx    *Context
	policy Policy

	// Stats.
	Submitted uint64
	Completed uint64
	Rejected  uint64
	Response  metrics.Summary
	Wait      metrics.Summary
	Spend     float64

	onDone func(*Job)
}

// NewBroker creates a broker over the given context and fabric.
func NewBroker(name string, e *des.Engine, fabric netsim.Fabric, ctx *Context, policy Policy) *Broker {
	if ctx.Now == nil {
		ctx.Now = e.Now
	}
	return &Broker{Name: name, e: e, fabric: fabric, ctx: ctx, policy: policy}
}

// Policy returns the placement policy.
func (b *Broker) Policy() Policy { return b.policy }

// OnDone installs a completion hook invoked for every finished or
// rejected job.
func (b *Broker) OnDone(fn func(*Job)) { b.onDone = fn }

// Submit runs the job's full lifecycle. The job's Origin must be set
// (where input data lives and output returns to).
func (b *Broker) Submit(job *Job) {
	if job.Origin == nil {
		panic(fmt.Sprintf("scheduler: %v submitted without origin", job))
	}
	b.Submitted++
	job.Submitted = b.e.Now()
	site := b.policy.Select(job, b.ctx)
	if site == nil || b.ctx.Clusters[site] == nil {
		job.Done = true
		job.Failed = true
		job.FailWhy = "no feasible site"
		job.Finished = b.e.Now()
		b.Rejected++
		if b.onDone != nil {
			b.onDone(job)
		}
		return
	}
	job.Site = site
	cluster := b.ctx.Clusters[site]
	b.e.Spawn(fmt.Sprintf("%s:%s", b.Name, job), func(p *des.Process) {
		// Stage input to the execution site.
		if job.InputBytes > 0 && site != job.Origin {
			b.fabric.Send(p, job.Origin.Net, site.Net, job.InputBytes)
		}
		// Execute; preserve the broker-side submission timestamp.
		submitted := job.Submitted
		cluster.Run(p, job)
		job.Submitted = submitted
		// Price the compute before output staging (transfers are free
		// in the GridSim economy; only CPU time is billed).
		if rate, ok := b.ctx.CostPerCoreSec[site]; ok {
			job.Cost = rate * job.RunTime() * float64(job.Width())
			b.Spend += job.Cost
		}
		// Return output to the origin.
		if job.OutputBytes > 0 && site != job.Origin {
			b.fabric.Send(p, site.Net, job.Origin.Net, job.OutputBytes)
			job.Finished = p.Now()
		}
		b.Completed++
		b.Response.Observe(job.ResponseTime())
		b.Wait.Observe(job.WaitTime())
		if b.onDone != nil {
			b.onDone(job)
		}
	})
}
