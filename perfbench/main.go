// Command perfbench is the repository benchmark. It runs one workload in
// its own process, checks every output the workload produces, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as a
// table followed by one JSON line:
//
//	bash perfbench/run.sh --workload fig5_schemes_8x8 --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how a performance
// claim cites them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported quantity and its unit.
type metric struct{ name, unit string }

// endToEnd and perLayer are the metric sets of BENCHMARK.json, in the
// order the table prints them. An untraced run reports exactly
// endToEnd, a traced run exactly perLayer.
var endToEnd = []metric{
	{"sim_cycles_per_s", "cycles/s"}, {"campaign_points_per_s", "points/s"},
	{"resubmit_ms_p50", "ms"}, {"resubmit_ms_p99", "ms"},
	{"setup_s", "s"}, {"peak_rss_mb", "MiB"},
}

var perLayer = []metric{
	{"sim.self_frac", "frac"}, {"sim.ticks_per_cycle", "ticks/cycle"}, {"sim.skipped_ratio", "frac"}, {"sim.events_per_cycle", "1/cycle"},
	{"router.self_frac", "frac"}, {"router.va_allocs_per_cycle", "1/cycle"}, {"router.sa_allocs_per_cycle", "1/cycle"},
	{"router.xbar_per_cycle", "1/cycle"}, {"router.probes", "count"},
	{"link.self_frac", "frac"}, {"link.hops_per_cycle", "1/cycle"}, {"link.retransmit_ratio", "frac"}, {"link.nacks", "count"}, {"link.ns_per_hop", "ns"},
	{"ecc.self_frac", "frac"}, {"ecc.corrections_per_decode", "frac"},
	{"fault.self_frac", "frac"},
	{"ac.self_frac", "frac"}, {"ac.checks_per_cycle", "1/cycle"},
	{"routing.self_frac", "frac"}, {"routing.rt_computes_per_cycle", "1/cycle"},
	{"network.self_frac", "frac"}, {"network.cycles", "cycles"}, {"network.avg_latency_cycles", "cycles"}, {"network.accepted_throughput", "flits/node/cycle"},
	{"support.self_frac", "frac"},
	{"host.gc_frac", "frac"}, {"host.unattributed_frac", "frac"}, {"mem.allocs_per_cycle", "1/cycle"}, {"mem.alloc_bytes_per_cycle", "B/cycle"},
	{"campaign.self_frac", "frac"}, {"campaign.reps", "count"},
	{"serve.self_frac", "frac"}, {"serve.queue_wait_s", "s"}, {"serve.job_run_s", "s"}, {"serve.cache_hit_ratio", "ratio"}, {"serve.http_requests", "count"},
	{"fabric.self_frac", "frac"}, {"fabric.shards_dispatched", "count"}, {"fabric.shard_retries", "count"}, {"fabric.worker_imbalance", "ratio"},
	{"trace.overhead_frac", "frac"},
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, x := range append(append([]metric(nil), endToEnd...), perLayer...) {
		m[x.name] = x.unit
	}
	return m
}()

// workload is one named input set. run measures it for env.seconds and
// records metrics and gate outcomes into env.rep; an error means the
// workload could not be set up at all, and no result is printed.
type workload struct {
	name string
	why  string
	run  func(env *env) error
}

var workloads = []workload{
	{"fig5_schemes_8x8", "the paper's Fig 5 platform at link error 1e-2 under HBH, E2E and FEC: error handling does real work", runFig5},
	{"mesh16x16_saturated", "a saturated 16x16 HBH mesh at link error 1e-5: router contention and kernel dispatch dominate", runMesh16},
	{"nocd_fabric_campaign", "a fresh 4x4 campaign grid and cached resubmits through nocd and a two-worker fabric", runService},
}

// env is what a workload run receives.
type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool // per-layer run: profile and spans instead of end-to-end metrics
	rep     *report
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: a separate traced run printing per-layer metrics")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, have %d", *trace)
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1, have %d", *seconds)
	}
	var todo []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatalf("unknown -workload %q (want %s, or all)", *name, workloadNames())
	}
	for _, w := range todo {
		e := &env{
			seed:    *seed,
			seconds: time.Duration(*seconds) * time.Second,
			trace:   *trace == 1,
			rep:     newReport(),
		}
		fmt.Printf("# perfbench workload=%s %s trace=%d seconds=%d\n", w.name, stamp(*seed), *trace, *seconds)
		fmt.Printf("# why: %s\n", w.why)
		if err := w.run(e); err != nil {
			fatalf("%s: %v", w.name, err)
		}
		want := endToEnd
		if e.trace {
			want = perLayer
		}
		line, err := e.rep.result(want)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		e.rep.printTable(os.Stdout, want)
		fmt.Println(line)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// stamp identifies the measurement: seed, toolchain, parallelism and the
// commit the binary was built from ("unknown" outside a git checkout).
func stamp(seed uint64) string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && commit != "unknown" {
			commit += "+dirty"
		}
	}
	return fmt.Sprintf("seed=%d go=%s gomaxprocs=%d numcpu=%d commit=%s",
		seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// report collects one run's metrics and gate outcome.
type report struct {
	gate
	values map[string]metricValue
	bases  map[string]string
	notes  []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{values: make(map[string]metricValue), bases: make(map[string]string)}
}

// set records a metric in its unit; base, when non-empty, says what the
// value was computed from (a ratio's numerator and denominator, or a
// median's sample count), printed in the table.
func (r *report) set(name string, v float64, base string) {
	unit, ok := unitOf[name]
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.values[name] = metricValue{v, unit}
	if base != "" {
		r.bases[name] = base
	}
}

// note adds a line to the table that is not a metric.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result renders the final JSON line over exactly the named metrics. A
// missing metric is a bug in the workload, not a measurement.
func (r *report) result(names []metric) (string, error) {
	metrics := make(map[string]metricValue, len(names))
	for _, m := range names {
		v, ok := r.values[m.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = v
	}
	if r.attempted < 1 {
		return "", fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	return string(b), err
}

func (r *report) printTable(f *os.File, names []metric) {
	for _, n := range r.notes {
		fmt.Fprintf(f, "  %s\n", n)
	}
	for _, m := range names {
		v := r.values[m.name]
		line := fmt.Sprintf("  %-30s %16.6g %-12s", m.name, v.Value, v.Unit)
		if b := r.bases[m.name]; b != "" {
			line += " (" + b + ")"
		}
		fmt.Fprintln(f, strings.TrimRight(line, " "))
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(f, "  %-30s %16.6g %-12s (%d failed / %d attempted)\n", "fail_frac", frac, "frac", r.failed, r.attempted)
	for _, reason := range r.reasons {
		fmt.Fprintf(f, "  FAIL %s\n", reason)
	}
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or
// falls back to the Go runtime's total obtained memory where /proc is
// unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
