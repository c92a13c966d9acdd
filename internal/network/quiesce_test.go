package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ftnoc/internal/invariant"
	"ftnoc/internal/kernel"
	"ftnoc/internal/link"
	"ftnoc/internal/routing"
	"ftnoc/internal/trace"
)

// attachChecker gives cfg a fresh runtime invariant checker (one per
// run — checkers are stateful) and returns it for the post-run verdict.
func attachChecker(cfg *Config) *invariant.Checker {
	chk := invariant.New(invariant.Config{})
	cfg.Invariants = chk
	return chk
}

// assertClean fails the test if the checker recorded any violation, and
// sanity-checks that it actually audited traffic (a checker that saw
// nothing proves nothing).
func assertClean(t *testing.T, label string, chk *invariant.Checker) {
	t.Helper()
	for i, v := range chk.Violations() {
		if i >= 5 {
			t.Errorf("%s: ... and %d more violations", label, chk.Total()-i)
			break
		}
		t.Errorf("%s: %v", label, v)
	}
	injected, _, _, events := chk.Stats()
	if injected == 0 || events == 0 {
		t.Fatalf("%s: checker audited no traffic (injected %d, events %d)", label, injected, events)
	}
}

// diffConfig builds one point of the differential grid: a small network
// with packet journeys traced so the comparison covers event timing, not
// just aggregate counts.
func diffConfig(alg routing.Algorithm, prot link.Protection, linkRate float64, seed uint64) Config {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.Routing = alg
	cfg.Protection = prot
	cfg.Faults.Link = linkRate
	cfg.Seed = seed
	cfg.WarmupMessages = 50
	cfg.TotalMessages = 600
	cfg.MaxCycles = 300_000
	cfg.TracePIDs = []uint64{1, 2, 3, 5, 8, 13, 21, 34}
	return cfg
}

// comparable strips the one non-comparable field from a Results: the
// counters' Observer callback (a func, installed whenever tracing is on,
// never DeepEqual). Everything measured stays.
func comparable(r Results) Results {
	if r.Counters != nil {
		c := *r.Counters
		c.Observer = nil
		r.Counters = &c
	}
	return r
}

// runKernel executes cfg under the given scheduler with a fresh checker
// attached and returns the comparable results plus the scheduler stats.
func runKernel(t *testing.T, cfg Config, k kernel.Kind) (Results, uint64) {
	t.Helper()
	cfg.Kernel = k
	chk := attachChecker(&cfg)
	n := New(cfg)
	res := comparable(n.Run())
	assertClean(t, k.String(), chk)
	return res, n.KernelStats().Skipped
}

// captureSink records every trace event in emission order, so two runs
// can be compared event-for-event — a much stronger check than Results
// equality alone, because it pins down the cycle stamp and the ordering
// of every event, not just the aggregate outcome.
type captureSink struct{ events []trace.Event }

func (c *captureSink) Emit(e trace.Event) { c.events = append(c.events, e) }

// runCapture executes cfg under the given scheduler with a trace capture
// attached and returns the comparable results plus the ordered stream.
func runCapture(t *testing.T, cfg Config, k kernel.Kind) (Results, []trace.Event) {
	t.Helper()
	cfg.Kernel = k
	sink := &captureSink{}
	cfg.TraceSink = sink
	res := comparable(New(cfg).Run())
	return res, sink.events
}

// diffKernels are the schedulers checked against the naive oracle: every
// registered kind except the oracle itself. Deriving the list from
// kernel.Kinds keeps the grids honest — a new kernel cannot be added
// without entering the differential contract.
func diffKernels() []kernel.Kind {
	var ks []kernel.Kind
	for _, k := range kernel.Kinds() {
		if k != kernel.Naive {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestKernelDifferential is the scheduling contract made executable: for
// every grid point, the event kernel must produce Results — counters,
// latencies, utilizations, and the traced packet journeys — deeply equal
// to the naive tick-everyone oracle's. Subtests are keyed by the config's
// canonical hash, so a failure names the exact reproducible
// configuration.
func TestKernelDifferential(t *testing.T) {
	algs := []routing.Algorithm{routing.XY, routing.OddEven}
	prots := []link.Protection{link.HBH, link.E2E, link.FEC}
	rates := []float64{0, 1e-3, 1e-2}
	for _, alg := range algs {
		for _, prot := range prots {
			for _, rate := range rates {
				cfg := diffConfig(alg, prot, rate, 7)
				hash, err := cfg.CanonicalHash()
				if err != nil {
					t.Fatalf("hashing config: %v", err)
				}
				name := fmt.Sprintf("%s-%s-%g-%s", alg, prot, rate, hash[:12])
				rate := rate
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					want, naiveSkipped := runKernel(t, cfg, kernel.Naive)
					if naiveSkipped != 0 {
						t.Fatalf("naive kernel skipped %d ticks", naiveSkipped)
					}
					for _, k := range diffKernels() {
						got, skipped := runKernel(t, cfg, k)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%v kernel diverged from naive:\nnaive: %+v\n%v:    %+v", k, want, k, got)
						}
						if skipped == 0 && rate == 0 {
							t.Errorf("%v kernel never skipped a tick on a fault-free run", k)
						}
					}
				})
			}
		}
	}
}

// TestKernelSeedReplay is the randomized differential: for random
// operating points (mesh shape, load, link error rate, seed), the event
// kernel must reproduce the naive oracle's Results and its whole trace
// stream event-for-event, and a second event-kernel run with the same
// seed must reproduce the first.
func TestKernelSeedReplay(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(0xf17b0a7))
	for i := 0; i < 5; i++ {
		cfg := NewConfig()
		cfg.Width = 3 + rng.Intn(3)
		cfg.Height = 3 + rng.Intn(3)
		cfg.InjectionRate = 0.1 + 0.2*rng.Float64()
		cfg.Faults.Link = []float64{0, 1e-3, 1e-2}[rng.Intn(3)]
		cfg.Seed = rng.Uint64() | 1
		cfg.WarmupMessages = 50
		cfg.TotalMessages = 500
		cfg.MaxCycles = 300_000
		cfg.TracePIDs = []uint64{1, 2, 3, 5, 8}

		oracle, oracleEvents := runCapture(t, cfg, kernel.Naive)
		first, firstEvents := runCapture(t, cfg, kernel.Event)
		replay, replayEvents := runCapture(t, cfg, kernel.Event)
		if !reflect.DeepEqual(first, replay) || !reflect.DeepEqual(firstEvents, replayEvents) {
			t.Fatalf("point %d (%dx%d seed=%d): event replay diverged from itself",
				i, cfg.Width, cfg.Height, cfg.Seed)
		}
		if !reflect.DeepEqual(oracle, first) || !reflect.DeepEqual(oracleEvents, firstEvents) {
			t.Fatalf("point %d (%dx%d seed=%d): event kernel diverged from naive",
				i, cfg.Width, cfg.Height, cfg.Seed)
		}
	}
}

// TestKernelDifferentialBurst covers the injection-limit path: once the
// network-wide limit is reached, sleeping sources stop replaying their
// accumulators — that divergence must stay unobservable under the
// skipping scheduler.
func TestKernelDifferentialBurst(t *testing.T) {
	cfg := diffConfig(routing.XY, link.HBH, 1e-3, 11)
	cfg.WarmupMessages = 0
	cfg.InjectLimit = 400
	cfg.TotalMessages = 400
	want, _ := runKernel(t, cfg, kernel.Naive)
	if want.Delivered != 400 {
		t.Fatalf("burst delivered %d/400", want.Delivered)
	}
	for _, k := range diffKernels() {
		got, _ := runKernel(t, cfg, k)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("burst run diverged under %v:\nnaive: %+v\n%v:    %+v", k, want, k, got)
		}
	}
}

// TestKernelDifferentialRecovery drives the deadlock-recovery and
// hard-fault machinery (probes, activations, reroutes) under both
// kernels: the protocol state machines must be cycle-identical too.
func TestKernelDifferentialRecovery(t *testing.T) {
	cfg := diffConfig(routing.MinimalAdaptive, link.HBH, 1e-3, 3)
	cfg.InjectionRate = 0.30
	cfg.Faults.RT = 5e-4
	cfg.Faults.SA = 5e-4
	cfg.Faults.VA = 5e-4
	want, _ := runKernel(t, cfg, kernel.Naive)
	for _, k := range diffKernels() {
		got, _ := runKernel(t, cfg, k)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("recovery run diverged under %v:\nnaive: %+v\n%v:    %+v", k, want, k, got)
		}
	}
}
