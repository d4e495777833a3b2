package experiments

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/queueing"
	"repro/internal/resources"
	"repro/internal/rng"
	"repro/internal/scheduler"
)

// A row's 95 % half-width is e6T standard errors of e6Batches batch
// means: Student's t at 0.975 with e6Batches−1 degrees of freedom.
const e6Batches, e6T = 20, 2.093

// The link every link row crosses: 10 MB/s with a 50 ms latency.
const e6Bps, e6Latency = 10e6, 0.05

// A job is one customer: its arrival instant, its demand x (ops on a
// CPU, bytes on a link) and its sojourn t.
type job struct{ at, x, t float64 }

// A station is one E6 system: Poisson(lambda) arrivals whose demands
// size draws, served by the component build puts on the engine, and
// the rows theory gives a mean for.
type station struct {
	name   string
	seed   uint64
	lambda float64
	size   func(*rng.Source) float64
	build  func(e *des.Engine) (serve func(x float64, done func()))
	rows   []measure
}

// A measure is one row: the analytic mean of a per-job quantity. of
// reports false for a job outside the row's size class.
type measure struct {
	name     string
	analytic float64
	of       func(j job) (float64, bool)
}

func sojourn(j job) (float64, bool) { return j.t, true }

// run drives n arrivals through s and returns them in arrival order.
func (s station) run(n int) []job {
	e := des.NewEngine(des.WithSeed(s.seed))
	serve := s.build(e)
	arr, svc := e.Stream("arrivals"), e.Stream("service")
	jobs := make([]job, n)
	i := 0
	var arrive func()
	arrive = func() {
		j := &jobs[i]
		*j = job{at: e.Now(), x: s.size(svc)}
		serve(j.x, func() { j.t = e.Now() - j.at })
		if i++; i < n {
			e.Schedule(arr.Exp(s.lambda), arrive)
		}
	}
	e.Schedule(arr.Exp(s.lambda), arrive)
	e.Run()
	return jobs
}

// estimate returns m's mean over the jobs after a 10 % warmup and the
// half-width of its 95 % batch-means confidence interval.
func (m measure) estimate(jobs []job) (mean, ci float64) {
	jobs = jobs[len(jobs)/10:]
	per := len(jobs) / e6Batches
	var means metrics.Summary
	for b := range e6Batches {
		var batch metrics.Summary
		for _, j := range jobs[b*per : (b+1)*per] {
			if v, ok := m.of(j); ok {
				batch.Observe(v)
			}
		}
		means.Observe(batch.Mean())
	}
	return means.Mean(), e6T * means.StdErr()
}

// fifo is an M/G/c station on a space-shared CPU of c cores at speed
// 1, so a job's demand is its service time S and its wait is W − S.
func fifo(name string, seed uint64, lambda float64, c int, size func(*rng.Source) float64, w, wq float64) station {
	return station{name, seed, lambda, size, func(e *des.Engine) func(float64, func()) {
		return resources.NewCPU(e, name, c, 1, resources.SpaceShared).Execute
	}, []measure{{"W", w, sojourn}, {"Wq", wq, func(j job) (float64, bool) { return j.t - j.x, true }}}}
}

// ps is an M/G/1-PS station at load rho on a one-core time-shared
// CPU. Processor sharing is insensitive to the demand distribution:
// whatever size draws, the mean sojourn is E[S]/(1−ρ), the M/M/1 value.
func ps(name string, seed uint64, rho, es float64, size func(*rng.Source) float64) station {
	mm1, _ := queueing.NewMM1(rho/es, 1/es)
	return station{name, seed, rho / es, size, func(e *des.Engine) func(float64, func()) {
		return resources.NewCPU(e, name, 1, 1, resources.TimeShared).Execute
	}, []measure{{"W", mm1.W, sojourn}}}
}

// link returns a serve that sends x bytes over one netsim link.
func link(e *des.Engine) func(float64, func()) {
	topo := netsim.NewTopology()
	a, b := topo.AddNode("a"), topo.AddNode("b")
	topo.Connect(a, b, e6Bps, e6Latency)
	net := netsim.NewNetwork(e, topo)
	return func(x float64, done func()) { net.Transfer(a, b, x, done) }
}

func expMean(mean float64) func(*rng.Source) float64 {
	return func(s *rng.Source) float64 { return s.Exp(1 / mean) }
}

func fixed(v float64) func(*rng.Source) float64 { return func(*rng.Source) float64 { return v } }

// e6Stations lists E6's systems in table order.
func e6Stations() []station {
	mm1, _ := queueing.NewMM1(0.7, 1)
	// M/M/3 on a three-core FCFS scheduler cluster, through Submit.
	mm3, _ := queueing.NewMMC(2.4, 1, 3)
	cluster := fifo("M/M/3 cluster rho=0.8", 102, 2.4, 3, expMean(1), mm3.W, mm3.Wq)
	cluster.build = func(e *des.Engine) func(float64, func()) {
		c := scheduler.NewCluster(e, cluster.name, 3, 1, scheduler.FCFS)
		return func(x float64, done func()) { c.Submit(&scheduler.Job{Ops: x}, func(*scheduler.Job) { done() }) }
	}
	md1, _ := queueing.NewMD1(0.6, 1)
	mg1, _ := queueing.NewMG1(0.75, 1, 0.25) // Erlang-4: variance E[S]²/4

	// Bounded Pareto on [0.1, 10] with shape 1.5, and its mean.
	lo, hi, a := 0.1, 10.0, 1.5
	bpMean := a / (a - 1) * math.Pow(lo, a) / (1 - math.Pow(lo/hi, a)) * (math.Pow(lo, 1-a) - math.Pow(hi, 1-a))

	// One link at load 0.7 under flows of 1 or 4 MB, equally likely:
	// max-min sharing on one link is processor sharing, so a flow of x
	// bytes takes the latency plus x/(C(1−ρ)) on average.
	const linkRho = 0.7
	class := func(x float64) measure {
		return measure{fmt.Sprintf("T | %g MB", x/1e6), e6Latency + x/(e6Bps*(1-linkRho)),
			func(j job) (float64, bool) { return j.t, j.x == x }}
	}

	// A time-shared CPU (exponential work, mean 1 s) feeds the link a
	// 12 MB flow per job. Both stations are processor sharing, so the
	// BCMP product form holds and the mean sojourn is Jackson's plus
	// the link's latency.
	const tandemLambda, tandemBytes = 0.5, 12e6
	jackson, _ := queueing.SolveJackson([]queueing.JacksonNode{
		{Name: "cpu", Mu: 1, Servers: 1, Lambda0: tandemLambda, Routing: []queueing.Route{{To: 1, P: 1}}},
		{Name: "link", Mu: e6Bps / tandemBytes, Servers: 1},
	})

	return []station{
		fifo("M/M/1 rho=0.7", 101, 0.7, 1, expMean(1), mm1.W, mm1.Wq),
		cluster,
		fifo("M/D/1 rho=0.6", 103, 0.6, 1, fixed(1), md1.W, md1.Wq),
		fifo("M/G/1 Erlang-4 rho=0.75", 104, 0.75, 1, func(s *rng.Source) float64 { return s.Erlang(4, 4) }, mg1.W, mg1.Wq),
		ps("M/M/1-PS rho=0.7", 105, 0.7, 1, expMean(1)),
		ps("M/D/1-PS rho=0.7", 106, 0.7, 1, fixed(1)),
		ps("M/BP/1-PS rho=0.7", 107, 0.7, bpMean, func(s *rng.Source) float64 { return s.BoundedPareto(lo, hi, a) }),
		{"link PS rho=0.7", 108, linkRho * e6Bps / 2.5e6,
			func(s *rng.Source) float64 { return []float64{1e6, 4e6}[s.Intn(2)] },
			link, []measure{class(1e6), class(4e6)}},
		{"CPU-PS -> link", 109, tandemLambda, expMean(1), func(e *des.Engine) func(float64, func()) {
			cpu, send := resources.NewCPU(e, "cpu", 1, 1, resources.TimeShared), link(e)
			return func(x float64, done func()) { cpu.Execute(x, func() { send(tandemBytes, done) }) }
		}, []measure{{"W", jackson.W + e6Latency, sojourn}}},
	}
}

// E6Validation reproduces claim C5 on the components the studies run:
// each of e6Stations takes n Poisson arrivals, and each row sets a
// measured mean and its 95 % half-width beside queueing theory's.
func E6Validation(n int) *metrics.Table {
	t := metrics.NewTable(
		"E6. Simulation vs queueing theory: CPUs, a cluster and links (95% batch-means CI)",
		"system", "measure", "analytic", "simulated", "± 95%", "err %")
	for _, s := range e6Stations() {
		jobs := s.run(n)
		for _, m := range s.rows {
			mean, ci := m.estimate(jobs)
			t.AddRow(s.name, m.name,
				fmt.Sprintf("%.4f", m.analytic),
				fmt.Sprintf("%.4f", mean),
				fmt.Sprintf("%.4f", ci),
				fmt.Sprintf("%.2f", math.Abs(mean-m.analytic)/m.analytic*100))
		}
	}
	return t
}
