package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ftnoc"
	"ftnoc/internal/campaign"
	"ftnoc/internal/fabric"
	"ftnoc/internal/serve"
)

// Service workload shape.
const (
	fabricWorkers = 2 // in-process fabric workers, one simulation thread each
	shardPoints   = 2 // grid points per dispatched shard
	// resubmitsPerRound is the cached resubmits after each fresh
	// campaign: enough that each round's p99 has ten samples beyond it.
	resubmitsPerRound = 1000
	// setupsPerRound is how many times a round starts the stack; every
	// start but the last is stopped again at once. Set-up takes about two
	// milliseconds and varies with goroutine scheduling, so setup_s needs
	// more samples than rounds give.
	setupsPerRound = 4
)

// serviceSpec is the fresh grid the client submits: small 4x4 points,
// protection × link error × injection rate, two seeds per point.
func serviceSpec(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"base":{"Width":4,"Height":4,"WarmupMessages":200,"TotalMessages":1000,"Seed":%d},`+
		`"protections":["hbh","e2e","fec"],"link_error_rates":[0.001,0.01],"injection_rates":[0.1,0.2],"seeds":2}`, seed))
}

// node is one in-process nocd: a serve.Server on a loopback listener.
type node struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve returns
}

func startNode(opts serve.Options) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(opts)
	n := &node{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		clearLabels()
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return n, nil
}

func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // only errors when called twice
	// Every request has been answered by now. Close, not a graceful
	// http.Server.Shutdown: that waits up to five seconds for a
	// connection a client dialled but never used, and the clients here
	// (the benchmark's, the workers', the coordinator's) dial spares.
	n.hs.Close()
	<-n.done
}

// stack is nocd in coordinator role plus its fabric workers, each
// worker being a nocd in worker role.
type stack struct {
	coord   *fabric.Coordinator
	front   *node
	workers []*node
	stopReg context.CancelFunc
	reg     sync.WaitGroup
}

// startStack starts the coordinator and the workers and returns once
// both workers are registered and alive.
func (b *serviceBench) startStack() (*stack, error) {
	coord := fabric.NewCoordinator(fabric.CoordinatorOptions{ShardPoints: shardPoints, HeartbeatTTL: time.Minute})
	front, err := startNode(serve.Options{
		Workers: 1, Runner: coord.Run, Fabric: coord.Handler(), ExtraMetrics: coord.Metrics(),
	})
	if err != nil {
		coord.Close()
		return nil, err
	}
	coord.SetCache(front.srv)
	ctx, cancel := context.WithCancel(context.Background())
	s := &stack{coord: coord, front: front, stopReg: cancel}
	for i := 0; i < fabricWorkers; i++ {
		w := fabric.NewWorker(fabric.WorkerOptions{
			Name: fmt.Sprintf("worker-%d", i), Coordinator: front.url, Slots: 1, SimWorkers: 1,
		})
		n, err := startNode(serve.Options{Fabric: w.Handler(), ExtraMetrics: w.Metrics()})
		if err != nil {
			s.stop()
			return nil, err
		}
		s.workers = append(s.workers, n)
		s.reg.Add(1)
		go func() {
			defer s.reg.Done()
			clearLabels()
			w.RegisterLoop(ctx, n.url)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var list []fabric.WorkerInfo
		if err := b.getJSON(front.url+fabric.PathWorkers, &list); err != nil {
			s.stop()
			return nil, err
		}
		alive := 0
		for _, w := range list {
			if w.Alive {
				alive++
			}
		}
		if alive == fabricWorkers {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("%d of %d workers registered after 10s", alive, fabricWorkers)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (s *stack) stop() {
	s.stopReg()
	s.reg.Wait()
	s.front.stop()
	s.coord.Close()
	for _, w := range s.workers {
		w.stop()
	}
	http.DefaultClient.CloseIdleConnections() // the coordinator's dispatch client
}

// serviceBench is the single closed-loop client. It reuses its buffers
// across requests, so that its own allocations add little garbage-
// collector work to the nocd it measures, which shares its process.
type serviceBench struct {
	spec   []byte
	client *http.Client
	g      *gate
	tr     *tracer
	body   bytes.Buffer // the last response body

	fresh   []json.RawMessage // first fresh campaign's rows
	matched int               // requests whose rows equalled fresh
}

// serviceRound is one nocd lifetime: set-up, one fresh campaign, then
// cached resubmits of the same spec.
type serviceRound struct {
	setups       []time.Duration
	fresh        time.Duration
	points, reps int
	cycles       uint64 // simulated cycles of the fresh campaign's replicates
	resubmits    []time.Duration
	before, mid  scrape // front /metrics after set-up and after the fresh campaign
	after        scrape // front /metrics after the resubmits
	workerCycles []float64
}

// request issues one HTTP request, counts it, and fails it unless the
// status is 2xx. The body it returns is valid until the next request.
func (b *serviceBench) request(method, url string, body []byte) ([]byte, error) {
	b.g.attempt()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		b.g.fail(1, "%s %s: %v", method, url, err)
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		b.g.fail(1, "%s %s: %v", method, url, err)
		return nil, err
	}
	defer resp.Body.Close()
	b.body.Reset()
	_, err = b.body.ReadFrom(resp.Body)
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		err = fmt.Errorf("status %s: %.200s", resp.Status, b.body.Bytes())
	}
	if err != nil {
		b.g.fail(1, "%s %s: %v", method, url, err)
		return nil, err
	}
	return b.body.Bytes(), nil
}

func (b *serviceBench) getJSON(url string, v any) error {
	body, err := b.request(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		b.g.fail(1, "GET %s: %v", url, err)
		return err
	}
	return nil
}

type submitReply struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
	Points int    `json:"points"`
	Reps   int    `json:"reps_total"`
}

func (b *serviceBench) submit(base string) (submitReply, error) {
	var r submitReply
	body, err := b.request(http.MethodPost, base+"/v1/campaigns", b.spec)
	if err == nil {
		if err = json.Unmarshal(body, &r); err != nil {
			b.g.fail(1, "submit reply: %v", err)
		}
	}
	return r, err
}

// wait follows the job's SSE stream to its terminal event.
func (b *serviceBench) wait(base, id string) error {
	b.g.attempt()
	resp, err := b.client.Get(base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		b.g.fail(1, "events: %v", err)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.g.fail(1, "events: status %s", resp.Status)
		return errors.New(resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch ev {
		case "done":
			_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
			return nil
		case "failed", "canceled":
			b.g.fail(1, "campaign %s ended %s", id, ev)
			return errors.New(ev)
		}
	}
	b.g.fail(1, "events stream of %s ended without a terminal event: %v", id, sc.Err())
	return errors.New("no terminal event")
}

type statusReply struct {
	State  string            `json:"state"`
	Cached bool              `json:"cached"`
	Error  string            `json:"error"`
	Result []json.RawMessage `json:"result"`
}

// fetch GETs a campaign's status. The body is valid until the next
// request. Timed regions end here: decoding the body is the benchmark
// client's work, not the service's, and happens after the clock stops.
func (b *serviceBench) fetch(base, id string) ([]byte, error) {
	return b.request(http.MethodGet, base+"/v1/campaigns/"+id, nil)
}

// decodeStatus parses a status body into r, reusing r's row buffers, and
// fails the request unless the campaign is done without error.
func (b *serviceBench) decodeStatus(id string, body []byte, r *statusReply) error {
	*r = statusReply{Result: r.Result[:0]}
	if err := json.Unmarshal(body, r); err != nil {
		b.g.fail(1, "GET campaign %s: %v", id, err)
		return err
	}
	if r.State != "done" || r.Error != "" {
		b.g.fail(1, "campaign %s: state %s %s", id, r.State, r.Error)
		return errors.New(r.State)
	}
	return nil
}

// checkRows compares a response's rows with the first fresh campaign's,
// charging the request that returned them on a mismatch.
func (b *serviceBench) checkRows(rows []json.RawMessage) {
	if b.fresh == nil {
		for _, r := range rows {
			b.fresh = append(b.fresh, append(json.RawMessage(nil), r...))
		}
	}
	if err := sameRows(rows, b.fresh); err != nil {
		b.g.fail(1, "rows differ from the first fresh campaign: %v", err)
		return
	}
	b.matched++
}

func (b *serviceBench) round() (serviceRound, error) {
	var r serviceRound
	var st *stack
	var err error
	runtime.GC() // as between simulations: the last round's garbage stays out of this one
	for range setupsPerRound {
		if st != nil {
			st.stop()
		}
		t0 := time.Now()
		b.tr.do("setup", func() { st, err = b.startStack() })
		r.setups = append(r.setups, time.Since(t0))
		if err != nil {
			return r, err
		}
	}
	defer st.stop()
	base := st.front.url
	if r.before, err = b.scrape(base); err != nil {
		return r, err
	}

	var sub submitReply
	var status statusReply
	var body []byte
	t1 := time.Now()
	b.tr.do("submit", func() { sub, err = b.submit(base) })
	if err == nil {
		b.tr.do("wait", func() { err = b.wait(base, sub.ID) })
	}
	if err == nil {
		b.tr.do("fetch", func() { body, err = b.fetch(base, sub.ID) })
	}
	r.fresh = time.Since(t1)
	if err == nil {
		err = b.decodeStatus(sub.ID, body, &status)
	}
	if err != nil {
		return r, nil // counted by the gate; the round yields no timing
	}
	if sub.Cached {
		b.g.fail(1, "fresh submit was served from the cache")
	}
	r.points, r.reps = sub.Points, sub.Reps
	b.checkRows(status.Result)
	r.cycles = rowCycles(status.Result)
	if r.mid, err = b.scrape(base); err != nil {
		return r, err
	}
	for _, w := range st.workers {
		ws, err := b.scrape(w.url)
		if err != nil {
			return r, err
		}
		r.workerCycles = append(r.workerCycles, ws.sum("nocd_fabric_worker_sim_cycles_total"))
	}

	var again submitReply
	var rows statusReply
	for i := 0; i < resubmitsPerRound; i++ {
		t := time.Now()
		b.tr.do("resubmit", func() {
			if again, err = b.submit(base); err == nil {
				body, err = b.fetch(base, again.ID)
			}
		})
		d := time.Since(t)
		if err == nil {
			err = b.decodeStatus(again.ID, body, &rows)
		}
		if err != nil {
			continue
		}
		r.resubmits = append(r.resubmits, d)
		if !again.Cached || !rows.Cached {
			b.g.fail(1, "resubmit %d was not served from the cache", i)
			continue
		}
		b.checkRows(rows.Result)
	}
	if r.after, err = b.scrape(base); err != nil {
		return r, err
	}
	b.checkFleet(r)
	return r, nil
}

// checkFleet fails the round's fresh campaign if the fabric recorded a
// shard failure or retry, or the coordinator answered a request with
// non-2xx.
func (b *serviceBench) checkFleet(r serviceRound) {
	if d := r.after.sum("nocd_fabric_shard_failures_total") - r.before.sum("nocd_fabric_shard_failures_total"); d != 0 {
		b.g.fail(1, "%g fabric shard failures", d)
	}
	if d := r.after.sum("nocd_fabric_shard_retries_total") - r.before.sum("nocd_fabric_shard_retries_total"); d != 0 {
		b.g.fail(1, "%g fabric shard retries", d)
	}
	if d := r.after.non2xx() - r.before.non2xx(); d != 0 {
		b.g.fail(int(d), "coordinator answered %g requests with non-2xx", d)
	}
}

// rowCycles sums the simulated cycles of every replicate in the rows.
func rowCycles(rows []json.RawMessage) uint64 {
	var total uint64
	for _, raw := range rows {
		var row campaign.PointRow
		if json.Unmarshal(raw, &row) != nil {
			continue // a malformed row already failed checkRows
		}
		for _, rep := range row.Replicates {
			total += rep.Cycles
		}
	}
	return total
}

// settle runs the spec in-process on the naive kernel with invariant
// checking and fails every request whose rows matched a first fresh
// campaign that differs from it.
func (b *serviceBench) settle() {
	if b.fresh == nil {
		return
	}
	want, err := serviceOracle(b.spec)
	if err != nil {
		b.g.fail(b.matched, "oracle: %v", err)
		return
	}
	if err := sameRows(b.fresh, splitRows(want)); err != nil {
		b.g.fail(b.matched, "fresh rows differ from the in-process campaign.Run oracle: %v", err)
	}
}

func splitRows(table []byte) []json.RawMessage {
	var rows []json.RawMessage
	for _, line := range bytes.Split(table, []byte{'\n'}) {
		if len(line) > 0 {
			rows = append(rows, line)
		}
	}
	return rows
}

// serviceOracle renders the spec's rows from campaign.Run on the naive
// kernel with every replicate invariant-checked, and rejects a grid
// whose points did not all complete cleanly.
func serviceOracle(specJSON []byte) ([]byte, error) {
	spec, err := campaign.ParseSpec(specJSON)
	if err != nil {
		return nil, err
	}
	spec.Base.Kernel = ftnoc.KernelNaive
	spec.Invariants = true
	rep, err := campaign.Run(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	for _, row := range rep.PointRows() {
		if row.Error != "" || row.Completed != row.Reps || row.Stalled != 0 || row.Aborted != 0 {
			return nil, fmt.Errorf("point %d: %d/%d completed, %d stalled, %d aborted %s",
				row.Point, row.Completed, row.Reps, row.Stalled, row.Aborted, row.Error)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteNDJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (b *serviceBench) measure(d time.Duration, minRounds int) ([]serviceRound, error) {
	deadline := time.Now().Add(d)
	var rounds []serviceRound
	for len(rounds) < minRounds || time.Now().Before(deadline) {
		r, err := b.round()
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

func (r serviceRound) cyclesPerSec() float64 { return float64(r.cycles) / r.fresh.Seconds() }

func runService(e *env) error {
	b := &serviceBench{
		spec:   serviceSpec(e.seed),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 2 * time.Minute},
		g:      &e.rep.gate,
	}
	defer b.client.CloseIdleConnections()
	if !e.trace {
		rounds, err := b.measure(e.seconds, 3)
		if err != nil {
			return err
		}
		rss := peakRSSMB()
		b.settle()
		setServiceEndToEnd(e.rep, rounds, rss)
		return nil
	}

	var traced []serviceRound
	a, err := tracedRun(e, "nocd_fabric_campaign", func(d time.Duration, tr *tracer) (float64, error) {
		b.tr = tr
		rounds, err := b.measure(d, 1)
		traced = rounds
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, r.cyclesPerSec())
		}
		return median(xs), err
	}, b.settle)
	if err != nil {
		return err
	}
	counts, err := campaignCounts(b.spec)
	if err != nil {
		return err
	}
	setSimLayers(e.rep, counts, a, len(traced))
	setServiceLayers(e.rep, traced)
	return nil
}

// campaignCounts runs the spec once in-process on the default kernel
// and sums the simulator counters of its replicates: the same
// simulations the fabric workers ran, whose counters nocd does not
// expose.
func campaignCounts(specJSON []byte) (*simCounts, error) {
	spec, err := campaign.ParseSpec(specJSON)
	if err != nil {
		return nil, err
	}
	spec.Workers = 1
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, bytes := ms.Mallocs, ms.TotalAlloc
	rep, err := campaign.Run(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	c := &simCounts{rounds: 1, mallocs: ms.Mallocs - mallocs, allocBytes: ms.TotalAlloc - bytes}
	for _, p := range rep.Points {
		for _, r := range p.Reps {
			c.add(r.Results, ftnoc.KernelStats{Ticked: r.KernelTicked, Skipped: r.KernelSkipped, Events: r.KernelEvents})
		}
	}
	return c, nil
}

func setServiceEndToEnd(rep *report, rounds []serviceRound, rss float64) {
	var cps, pps, setup, p50, p99, all []float64
	for _, r := range rounds {
		for _, d := range r.setups {
			setup = append(setup, d.Seconds())
		}
		if r.cycles == 0 {
			continue // the fresh campaign failed; the gate counted it
		}
		cps = append(cps, r.cyclesPerSec())
		pps = append(pps, float64(r.points)/r.fresh.Seconds())
		var ms []float64
		for _, d := range r.resubmits {
			ms = append(ms, float64(d)/float64(time.Millisecond))
		}
		p50 = append(p50, quantile(ms, 0.5))
		p99 = append(p99, quantile(ms, 0.99))
		all = append(all, ms...)
	}
	n := fmt.Sprintf("median of %d fresh campaigns", len(cps))
	rep.note("rounds: %d; campaign_points_per_s min %.6g, median %.6g, max %.6g", len(rounds), quantile(pps, 0), median(pps), quantile(pps, 1))
	rep.note("setup_s min %.6g, median %.6g, max %.6g", quantile(setup, 0), median(setup), quantile(setup, 1))
	rep.set("sim_cycles_per_s", median(cps), n+", replicate cycles over submit-to-rows time")
	rep.set("campaign_points_per_s", median(pps), n+", submit to last row")
	// Like every other metric, the latency percentiles are medians over
	// rounds: a burst of host interference then moves the rounds it hits,
	// not the whole run's tail.
	rep.note("resubmits: %d; pooled p50 %.6g ms, p99 %.6g ms with %d beyond", len(all), quantile(all, 0.5), quantile(all, 0.99), beyond(all, 0.99))
	rep.note("per-round resubmit p99 min %.6g, median %.6g, max %.6g ms", quantile(p99, 0), median(p99), quantile(p99, 1))
	rep.set("resubmit_ms_p50", median(p50), fmt.Sprintf("median over %d rounds of each round's p50 over %d cached resubmits, POST+GET each", len(p50), resubmitsPerRound))
	rep.set("resubmit_ms_p99", median(p99), fmt.Sprintf("median over %d rounds of each round's p99 over %d cached resubmits, %d beyond it", len(p99), resubmitsPerRound, resubmitsPerRound/100))
	rep.set("setup_s", median(setup), fmt.Sprintf("median of %d starts, nocd start to %d workers registered", len(setup), fabricWorkers))
	rep.set("peak_rss_mb", rss, "VmHWM after the timed rounds, before the oracle")
}

// setServiceLayers records the service layers' counters from the
// traced rounds' /metrics deltas.
func setServiceLayers(rep *report, rounds []serviceRound) {
	var reps, reqs, dispatched, retries, hits, lookups, waitSum, waitN, runSum, runN float64
	workers := make([]float64, fabricWorkers)
	for _, r := range rounds {
		reps += float64(r.reps)
		d := func(name string) float64 { return r.after.sum(name) - r.before.sum(name) }
		reqs += d("nocd_http_requests_total")
		dispatched += d("nocd_fabric_shards_dispatched_total")
		retries += d("nocd_fabric_shard_retries_total")
		waitSum += d("nocd_job_queue_wait_seconds_sum")
		waitN += d("nocd_job_queue_wait_seconds_count")
		runSum += d("nocd_job_run_seconds_sum")
		runN += d("nocd_job_run_seconds_count")
		h := r.after.sum("nocd_cache_hits_total") - r.mid.sum("nocd_cache_hits_total")
		hits += h
		lookups += h + r.after.sum("nocd_cache_misses_total") - r.mid.sum("nocd_cache_misses_total")
		for i, c := range r.workerCycles {
			workers[i] += c
		}
	}
	n := float64(len(rounds))
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	lo, hi := workers[0], workers[0]
	for _, w := range workers {
		lo, hi = min(lo, w), max(hi, w)
	}
	rep.set("campaign.reps", reps/n, "replicates per fresh campaign")
	rep.set("serve.queue_wait_s", div(waitSum, waitN), fmt.Sprintf("%.6g s over %g jobs", waitSum, waitN))
	rep.set("serve.job_run_s", div(runSum, runN), fmt.Sprintf("%.6g s over %g jobs", runSum, runN))
	rep.set("serve.cache_hit_ratio", div(hits, lookups), fmt.Sprintf("%g hits / %g lookups in the resubmit phase", hits, lookups))
	rep.set("serve.http_requests", reqs/n, "coordinator requests per round")
	rep.set("fabric.shards_dispatched", dispatched/n, "per fresh campaign")
	rep.set("fabric.shard_retries", retries/n, "per fresh campaign")
	rep.set("fabric.worker_imbalance", div(hi, lo), fmt.Sprintf("max %g / min %g worker sim cycles", hi, lo))
}

// scrape is one /metrics exposition: every series' value by its full
// name with labels.
type scrape map[string]float64

func (b *serviceBench) scrape(base string) (scrape, error) {
	body, err := b.request(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	return parseMetrics(body), nil
}

func parseMetrics(body []byte) scrape {
	s := scrape{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	return s
}

// sum adds every series of one metric name, across label values.
func (s scrape) sum(name string) float64 {
	total := 0.0
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// non2xx counts requests answered with a status outside 2xx, except the
// 404 a fabric worker receives when it looks up a shard the
// coordinator's cache does not hold yet: that is a cache-peer miss, the
// expected answer for every shard of a fresh campaign.
func (s scrape) non2xx() float64 {
	total := 0.0
	for series, v := range s {
		if !strings.HasPrefix(series, "nocd_http_requests_total{") || strings.Contains(series, `status="2`) {
			continue
		}
		if strings.Contains(series, `method="GET",route="/fabric/",status="404"`) {
			continue
		}
		total += v
	}
	return total
}
