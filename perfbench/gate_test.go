package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"ftnoc"
)

// smallConfig is a 4x4 run that takes milliseconds.
func smallConfig() ftnoc.Config {
	cfg := ftnoc.NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupMessages = 50
	cfg.TotalMessages = 300
	cfg.Faults.Link = 1e-2
	cfg.Seed = 3
	return cfg
}

func TestSimGatePassesEqualRuns(t *testing.T) {
	cfg := smallConfig()
	var g gate
	s := newSimGate(&g, []ftnoc.Config{cfg})
	for i := 0; i < 2; i++ {
		s.check(0, ftnoc.New(cfg).Run())
	}
	s.settle()
	if g.attempted != 2 || g.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 2 and 0: %v", g.attempted, g.failed, g.reasons)
	}
}

func TestSimGateCountsPerturbedResults(t *testing.T) {
	cfg := smallConfig()
	res := ftnoc.New(cfg).Run()

	// A later run that differs from the first fails on its own.
	var g gate
	s := newSimGate(&g, []ftnoc.Config{cfg})
	s.check(0, res)
	bad := res
	bad.AvgLatency++
	s.check(0, bad)
	s.settle()
	if g.failed != 1 {
		t.Fatalf("failed %d, want 1: %v", g.failed, g.reasons)
	}

	// A first run that differs from the oracle fails with every run
	// that matched it.
	g = gate{}
	s = newSimGate(&g, []ftnoc.Config{cfg})
	bad = res
	bad.TotalEvents.LinkTraversals++
	s.check(0, bad)
	s.check(0, bad)
	s.settle()
	if g.attempted != 2 || g.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 2 and 2: %v", g.attempted, g.failed, g.reasons)
	}
}

func TestSimGateCountsUnfinishedRuns(t *testing.T) {
	cfg := smallConfig()
	res := ftnoc.New(cfg).Run()
	for name, mutate := range map[string]func(*ftnoc.Results){
		"stalled":       func(r *ftnoc.Results) { r.Stalled = true },
		"aborted":       func(r *ftnoc.Results) { r.Aborted = true },
		"undelivered":   func(r *ftnoc.Results) { r.Delivered = cfg.TotalMessages - 1 },
		"undeliverable": func(r *ftnoc.Results) { r.Undeliverable = 1 },
	} {
		var g gate
		s := newSimGate(&g, []ftnoc.Config{cfg})
		bad := res
		mutate(&bad)
		s.check(0, bad)
		if g.failed != 1 {
			t.Errorf("%s: failed %d, want 1", name, g.failed)
		}
	}
}

func TestServiceGateCountsCorruptedRows(t *testing.T) {
	spec := serviceSpec(1)
	want, err := serviceOracle(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := splitRows(want)
	if len(rows) != 12 {
		t.Fatalf("oracle has %d rows, want 12", len(rows))
	}

	var g gate
	b := &serviceBench{spec: spec, g: &g}
	b.checkRows(rows)
	b.checkRows(rows)
	corrupt := append([]json.RawMessage(nil), rows...)
	corrupt[5] = append(json.RawMessage(nil), corrupt[5]...)
	corrupt[5][len(corrupt[5])-2] ^= 1
	b.checkRows(corrupt)
	if g.failed != 1 {
		t.Fatalf("failed %d after one corrupted response, want 1: %v", g.failed, g.reasons)
	}
	b.settle()
	if g.failed != 1 {
		t.Fatalf("failed %d after settling correct rows, want 1: %v", g.failed, g.reasons)
	}

	// Fresh rows that all responses agreed on but that differ from the
	// oracle fail every one of those responses.
	g = gate{}
	b = &serviceBench{spec: spec, g: &g}
	for i := 0; i < 3; i++ {
		b.checkRows(corrupt)
	}
	b.settle()
	if g.failed != 3 {
		t.Fatalf("failed %d, want 3: %v", g.failed, g.reasons)
	}
}

func TestNon2xxIgnoresCachePeerMisses(t *testing.T) {
	s := parseMetrics([]byte(`# HELP nocd_http_requests_total x
nocd_http_requests_total{method="GET",route="/fabric/",status="404"} 6
nocd_http_requests_total{method="POST",route="POST /v1/campaigns",status="202"} 1
nocd_http_requests_total{method="POST",route="POST /v1/campaigns",status="429"} 2
nocd_fabric_shard_retries_total 0
`))
	if got := s.non2xx(); got != 2 {
		t.Fatalf("non2xx = %g, want 2", got)
	}
	if got := s.sum("nocd_http_requests_total"); got != 9 {
		t.Fatalf("sum = %g, want 9", got)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"sort.Slice", "ftnoc/internal/router.(*Router).allocVA", "ftnoc/internal/sim.(*Kernel).Step"}, "router"},
		{[]string{"runtime.mallocgc", "ftnoc/internal/faultmap.New"}, "fault"},
		{[]string{"ftnoc/internal/stats.(*LatencyStats).Record"}, "support"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"net/http.(*conn).serve"}, "unattributed"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric and workload names the
// program reports equal to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	metrics := func(xs []struct{ Name, Unit string }) []metric {
		var out []metric
		for _, x := range xs {
			out = append(out, metric{x.Name, x.Unit})
		}
		return out
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads %v, program has %v", got, want)
	}
	if got := metrics(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, program has %v", got, endToEnd)
	}
	if got := metrics(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, program has %v", got, perLayer)
	}
}
