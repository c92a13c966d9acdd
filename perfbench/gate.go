package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	"ftnoc"
)

// maxReasons bounds the failure reasons a report keeps; the count keeps
// going past it.
const maxReasons = 8

// gate counts operations and the ones that failed a correctness check.
type gate struct {
	attempted, failed int
	reasons           []string
}

func (g *gate) attempt() { g.attempted++ }

// fail charges n operations as failed for the given reason.
func (g *gate) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	g.failed += n
	if len(g.reasons) < maxReasons {
		g.reasons = append(g.reasons, fmt.Sprintf("%d× ", n)+fmt.Sprintf(format, args...))
	}
}

// comparable strips the one field of Results that DeepEqual cannot
// compare: the fault counters' Observer callback, installed whenever a
// run publishes events (an attached invariant checker does). Every
// measured value stays.
func comparable(r ftnoc.Results) ftnoc.Results {
	if r.Counters != nil {
		c := *r.Counters
		c.Observer = nil
		r.Counters = &c
	}
	return r
}

// finished checks that a run ended the way every benchmark run must:
// not stalled, not aborted, every requested message delivered and none
// declared undeliverable.
func finished(cfg ftnoc.Config, r ftnoc.Results) error {
	switch {
	case r.Stalled:
		return fmt.Errorf("run stalled at cycle %d", r.Cycles)
	case r.Aborted:
		return fmt.Errorf("run aborted at cycle %d", r.Cycles)
	case r.Delivered < cfg.TotalMessages:
		return fmt.Errorf("delivered %d of %d messages", r.Delivered, cfg.TotalMessages)
	case r.Undeliverable != 0:
		return fmt.Errorf("%d messages undeliverable", r.Undeliverable)
	}
	return nil
}

// oracle reruns cfg on the naive kernel, which ticks every actor every
// cycle, with a runtime invariant checker attached. Its Results are the
// reference every timed run of cfg must equal.
func oracle(cfg ftnoc.Config) (ftnoc.Results, error) {
	cfg.Kernel = ftnoc.KernelNaive
	chk := ftnoc.NewInvariantChecker(ftnoc.InvariantConfig{})
	cfg.Invariants = chk
	res := comparable(ftnoc.New(cfg).Run())
	if err := chk.Err(); err != nil {
		return res, fmt.Errorf("oracle invariant checker: %w", err)
	}
	if injected, _, _, events := chk.Stats(); injected == 0 || events == 0 {
		return res, fmt.Errorf("oracle invariant checker audited no traffic")
	}
	if err := finished(cfg, res); err != nil {
		return res, fmt.Errorf("oracle: %w", err)
	}
	return res, nil
}

// simGate checks the timed runs of a fixed list of configurations. Runs
// of one configuration are deterministic, so each run is compared with
// the configuration's first run as it happens, and the first run with
// the oracle once measuring is over: a run counts as correct only if it
// equals the oracle.
type simGate struct {
	g       *gate
	cfgs    []ftnoc.Config
	first   []*ftnoc.Results
	matched []int // runs of each configuration equal to its first run
}

func newSimGate(g *gate, cfgs []ftnoc.Config) *simGate {
	return &simGate{g: g, cfgs: cfgs, first: make([]*ftnoc.Results, len(cfgs)), matched: make([]int, len(cfgs))}
}

// check records one timed run of configuration i.
func (s *simGate) check(i int, res ftnoc.Results) {
	s.g.attempt()
	if err := finished(s.cfgs[i], res); err != nil {
		s.g.fail(1, "config %d: %v", i, err)
		return
	}
	res = comparable(res)
	if s.first[i] == nil {
		s.first[i] = &res
	} else if !reflect.DeepEqual(*s.first[i], res) {
		s.g.fail(1, "config %d: run differs from the first run of the same config", i)
		return
	}
	s.matched[i]++
}

// settle compares each configuration's first run with its oracle and
// fails every run that matched a wrong first run.
func (s *simGate) settle() {
	for i, cfg := range s.cfgs {
		if s.first[i] == nil {
			continue
		}
		want, err := oracle(cfg)
		if err != nil {
			s.g.fail(s.matched[i], "config %d: %v", i, err)
			continue
		}
		if !reflect.DeepEqual(want, *s.first[i]) {
			s.g.fail(s.matched[i], "config %d: Results differ from the naive-kernel oracle", i)
		}
	}
}

// sameRows compares the result rows a status response returned with the
// rows they must reproduce byte for byte.
func sameRows(got, want []json.RawMessage) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("row %d differs: %.120s", i, got[i])
		}
	}
	return nil
}
