package main

import (
	"fmt"
	"runtime"
	"time"

	"ftnoc"
)

// fig5Configs is the paper's Fig 5 experiment in the regime where the
// schemes diverge: the NewConfig platform (8x8, NR at 0.25, AC and
// recovery on) at link error 1e-2 with routing, VC-allocator and
// switch-allocator logic faults at 1e-4, once each under HBH, E2E and
// FEC.
func fig5Configs(seed uint64) []ftnoc.Config {
	var cfgs []ftnoc.Config
	for _, p := range []ftnoc.Protection{ftnoc.HBH, ftnoc.E2E, ftnoc.FEC} {
		cfg := ftnoc.NewConfig()
		cfg.Protection = p
		cfg.Faults.Link = 1e-2
		cfg.Faults.RT, cfg.Faults.VA, cfg.Faults.SA = 1e-4, 1e-4, 1e-4
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// mesh16Configs is a saturated 16x16 mesh: NR at 0.25 under HBH, link
// error 1e-5 and no logic faults. Accepted throughput reaches its
// saturation value of about 0.2 flits/node/cycle within the first 8,000
// messages; 15,000 keep one run near two seconds, so a run of the
// benchmark takes a median over several.
func mesh16Configs(seed uint64) []ftnoc.Config {
	cfg := ftnoc.NewConfig()
	cfg.Width, cfg.Height = 16, 16
	cfg.TotalMessages = 15_000
	cfg.Faults.Link = 1e-5
	cfg.Seed = seed
	return []ftnoc.Config{cfg}
}

func runFig5(e *env) error   { return runSim(e, "fig5_schemes_8x8", fig5Configs(e.seed)) }
func runMesh16(e *env) error { return runSim(e, "mesh16x16_saturated", mesh16Configs(e.seed)) }

// simRound is one pass over a workload's configurations.
type simRound struct {
	setup, run time.Duration // summed ftnoc.New and Network.Run time
	cycles     uint64
	sims       []time.Duration // ftnoc.New plus Network.Run, per configuration
}

func (r simRound) cyclesPerSec() float64 { return float64(r.cycles) / r.run.Seconds() }

// simCounts sums the public counters of every run in a traced phase.
type simCounts struct {
	rounds, runs                       int
	cycles, ticked, skipped, events    uint64
	va, sa, xbar, probes               uint64
	hops, retrans, nacks               uint64
	decodes, corrections, acChecks, rt uint64
	latency, throughput                float64 // sums over runs
	mallocs, allocBytes                uint64  // while simulating
}

func (c *simCounts) add(res ftnoc.Results, ks ftnoc.KernelStats) {
	c.runs++
	c.cycles += res.Cycles
	c.ticked += ks.Ticked
	c.skipped += ks.Skipped
	c.events += ks.Events
	ev := res.TotalEvents
	c.va += ev.VAAllocs
	c.sa += ev.SAAllocs
	c.xbar += ev.XbTraversals
	c.probes += ev.Probes
	c.hops += ev.LinkTraversals
	c.retrans += ev.Retransmitted
	c.nacks += ev.NACKs
	c.decodes += ev.ECCDecodes
	c.corrections += ev.ECCCorrections
	c.acChecks += ev.ACChecks
	c.rt += ev.RTComputes
	c.latency += res.AvgLatency
	c.throughput += res.Throughput.FlitsPerNodePerCycle()
}

// simBench drives a fixed list of configurations through the public
// API, one simulation at a time.
type simBench struct {
	cfgs   []ftnoc.Config
	gate   *simGate
	tr     *tracer    // nil when untraced
	counts *simCounts // non-nil in the traced phase
}

func (b *simBench) round() simRound {
	var r simRound
	var ms runtime.MemStats
	for i, cfg := range b.cfgs {
		var n *ftnoc.Network
		var res ftnoc.Results
		// Collect the previous simulation's garbage outside the timed
		// region, so that neither its collection nor its heap lands on
		// this one.
		runtime.GC()
		t0 := time.Now()
		b.tr.do("setup", func() { n = ftnoc.New(cfg) })
		setup := time.Since(t0)
		if b.counts != nil {
			runtime.ReadMemStats(&ms)
		}
		mallocs, bytes := ms.Mallocs, ms.TotalAlloc
		t1 := time.Now()
		b.tr.do("run", func() { res = n.Run() })
		run := time.Since(t1)
		if b.counts != nil {
			runtime.ReadMemStats(&ms)
			b.counts.mallocs += ms.Mallocs - mallocs
			b.counts.allocBytes += ms.TotalAlloc - bytes
			b.counts.add(res, n.KernelStats())
		}
		r.setup += setup
		r.run += run
		r.cycles += res.Cycles
		r.sims = append(r.sims, setup+run)
		b.gate.check(i, res)
	}
	if b.counts != nil {
		b.counts.rounds++
	}
	return r
}

// measure runs rounds until the deadline, and at least minRounds.
func (b *simBench) measure(d time.Duration, minRounds int) []simRound {
	deadline := time.Now().Add(d)
	var rounds []simRound
	for len(rounds) < minRounds || time.Now().Before(deadline) {
		rounds = append(rounds, b.round())
	}
	return rounds
}

func medianCyclesPerSec(rounds []simRound) float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, r.cyclesPerSec())
	}
	return median(xs)
}

func runSim(e *env, name string, cfgs []ftnoc.Config) error {
	g := newSimGate(&e.rep.gate, cfgs)
	b := &simBench{cfgs: cfgs, gate: g}
	if !e.trace {
		rounds := b.measure(e.seconds, 3)
		rss := peakRSSMB()
		g.settle()
		setSimEndToEnd(e.rep, rounds, len(cfgs), rss)
		return nil
	}

	a, err := tracedRun(e, name, func(d time.Duration, tr *tracer) (float64, error) {
		b.tr = tr
		if tr != nil {
			b.counts = &simCounts{}
		}
		return medianCyclesPerSec(b.measure(d, 1)), nil
	}, g.settle)
	if err != nil {
		return err
	}
	setSimLayers(e.rep, b.counts, a, b.counts.rounds)
	setServiceLayersIdle(e.rep)
	return nil
}

func setSimEndToEnd(rep *report, rounds []simRound, perRound int, rss float64) {
	var cps, pps, setup, p50, p99 []float64
	for _, r := range rounds {
		cps = append(cps, r.cyclesPerSec())
		pps = append(pps, float64(perRound)/(r.setup+r.run).Seconds())
		setup = append(setup, r.setup.Seconds())
		var ms []float64
		for _, d := range r.sims {
			ms = append(ms, float64(d)/float64(time.Millisecond))
		}
		p50 = append(p50, quantile(ms, 0.5))
		p99 = append(p99, quantile(ms, 0.99))
	}
	n := fmt.Sprintf("median of %d rounds", len(rounds))
	rep.note("rounds: %d; sim_cycles_per_s min %.6g, median %.6g, max %.6g", len(rounds), quantile(cps, 0), median(cps), quantile(cps, 1))
	rep.set("sim_cycles_per_s", median(cps), n+", simulated cycles over Network.Run time")
	rep.set("campaign_points_per_s", median(pps), n+fmt.Sprintf(", %d configurations per round", perRound))
	// A run has too few simulations for a pooled p99 to have ten samples
	// beyond it, so each round's percentile over its simulations is
	// taken, and the median over rounds reported, like every other metric.
	rep.set("resubmit_ms_p50", median(p50), fmt.Sprintf("median over %d rounds of each round's p50 over %d simulations, New+Run each", len(p50), perRound))
	rep.set("resubmit_ms_p99", median(p99), fmt.Sprintf("median over %d rounds of each round's p99 over %d simulations, New+Run each", len(p99), perRound))
	rep.set("setup_s", median(setup), n+", every ftnoc.New of a round")
	rep.set("peak_rss_mb", rss, "VmHWM after the timed rounds, before the oracle")
}

// beyond counts the samples strictly above the q-quantile.
func beyond(xs []float64, q float64) int {
	t := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > t {
			n++
		}
	}
	return n
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func perCycle(rep *report, name string, num uint64, what string, c *simCounts) {
	rep.set(name, ratio(num, c.cycles), fmt.Sprintf("%d %s / %d cycles", num, what, c.cycles))
}

// setSimLayers records the simulator layers' counters. Counts that are
// not ratios are per round (one pass over the workload's configurations).
// profiled is the number of rounds the CPU profile covered.
func setSimLayers(rep *report, c *simCounts, a attribution, profiled int) {
	perRound := func(x uint64) float64 { return float64(x) / float64(max(c.rounds, 1)) }
	rep.note("counters: %d runs in %d rounds, %d simulated cycles", c.runs, c.rounds, c.cycles)
	rep.set("sim.ticks_per_cycle", ratio(c.ticked, c.cycles), fmt.Sprintf("%d ticks / %d cycles", c.ticked, c.cycles))
	rep.set("sim.skipped_ratio", ratio(c.skipped, c.ticked+c.skipped), fmt.Sprintf("%d skipped / %d ticks+skipped", c.skipped, c.ticked+c.skipped))
	perCycle(rep, "sim.events_per_cycle", c.events, "kernel events", c)
	perCycle(rep, "router.va_allocs_per_cycle", c.va, "VA allocs", c)
	perCycle(rep, "router.sa_allocs_per_cycle", c.sa, "SA allocs", c)
	perCycle(rep, "router.xbar_per_cycle", c.xbar, "crossbar traversals", c)
	rep.set("router.probes", perRound(c.probes), "deadlock probe flits per round")
	perCycle(rep, "link.hops_per_cycle", c.hops, "link traversals", c)
	rep.set("link.retransmit_ratio", ratio(c.retrans, c.hops), fmt.Sprintf("%d retransmitted / %d link traversals", c.retrans, c.hops))
	rep.set("link.nacks", perRound(c.nacks), "NACKs per round")
	hops := perRound(c.hops) * float64(profiled)
	linkNS := 0.0
	if hops > 0 {
		linkNS = a.ns("link") / hops
	}
	rep.set("link.ns_per_hop", linkNS, fmt.Sprintf("%.0f link-layer CPU ns / %.0f link traversals in %d profiled rounds", a.ns("link"), hops, profiled))
	rep.set("ecc.corrections_per_decode", ratio(c.corrections, c.decodes), fmt.Sprintf("%d corrections / %d decodes", c.corrections, c.decodes))
	perCycle(rep, "ac.checks_per_cycle", c.acChecks, "AC checks", c)
	perCycle(rep, "routing.rt_computes_per_cycle", c.rt, "RT computes", c)
	runs := float64(max(c.runs, 1))
	rep.set("network.cycles", perRound(c.cycles), "simulated cycles per round")
	rep.set("network.avg_latency_cycles", c.latency/runs, fmt.Sprintf("mean over %d runs, simulated", c.runs))
	rep.set("network.accepted_throughput", c.throughput/runs, fmt.Sprintf("mean over %d runs, simulated", c.runs))
	perCycle(rep, "mem.allocs_per_cycle", c.mallocs, "heap allocations while simulating", c)
	rep.set("mem.alloc_bytes_per_cycle", ratio(c.allocBytes, c.cycles), fmt.Sprintf("%d bytes allocated while simulating / %d cycles", c.allocBytes, c.cycles))
}

// setServiceLayersIdle records the service layers of a simulator
// workload: they do no work there.
func setServiceLayersIdle(rep *report) {
	for _, n := range []string{"campaign.reps", "serve.queue_wait_s", "serve.job_run_s", "serve.cache_hit_ratio",
		"serve.http_requests", "fabric.shards_dispatched", "fabric.shard_retries", "fabric.worker_imbalance"} {
		rep.set(n, 0, "no service layer in this workload")
	}
}
