package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// profileHz is the traced run's CPU sampling rate: five times the
// runtime default, so that small layers such as ECC collect enough
// samples in a few seconds.
const profileHz = 500

// span is one traced interval of the benchmark's own work: setup, run,
// oracle, submit, wait, fetch or resubmit. Parent is the enclosing
// span's ID, 0 at the top level.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer runs
// the wrapped work untraced. It is used from the benchmark's driving
// goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span, with a pprof label naming the span so the
// CPU profile can be cut by benchmark phase.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { fn() })
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// summarize adds one note per span name: count, total time, and self
// time (total minus the part covered by child spans).
func (t *tracer) summarize(rep *report) {
	total := map[string]float64{}
	self := map[string]float64{}
	count := map[string]int{}
	for _, s := range t.spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d
		count[s.Name]++
		if s.Parent > 0 {
			self[t.spans[s.Parent-1].Name] -= d
		}
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.note("span %-9s n=%-6d total %.4f s  self %.4f s", n, count[n], total[n], self[n])
	}
}

// write stores the spans as JSON next to the CPU profile.
func (t *tracer) write(path, stamp string) error {
	b, err := json.MarshalIndent(struct {
		Stamp string `json:"stamp"`
		Spans []span `json:"spans"`
	}{stamp, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedRun is the per-layer protocol every workload shares. measure
// runs the workload's rounds for a duration, traced into tr or untraced
// when tr is nil, and returns their median throughput; settle runs the
// workload's oracle. Half of the run is measured untraced, half under
// the CPU profiler; the oracle runs after profiling stops, inside its own
// span. tracedRun records the self fractions and the tracing overhead,
// writes the spans and the profile, and returns the attribution.
func tracedRun(e *env, name string, measure func(time.Duration, *tracer) (float64, error), settle func()) (attribution, error) {
	spansPath, profPath, err := traceFiles(name, e.seed)
	if err != nil {
		return attribution{}, err
	}
	untraced, err := measure(e.seconds/2, nil)
	if err != nil {
		return attribution{}, err
	}
	tr := newTracer()
	p, err := startProfile()
	if err != nil {
		return attribution{}, err
	}
	traced, err := measure(e.seconds/2, tr)
	a, perr := p.stop(profPath)
	if err != nil {
		return a, err
	}
	if perr != nil {
		return a, perr
	}
	tr.do("oracle", settle)
	tr.summarize(e.rep)
	if err := tr.write(spansPath, stamp(e.seed)); err != nil {
		return a, err
	}
	e.rep.note("trace: %s, %s", spansPath, profPath)
	setSelfFracs(e.rep, a)
	v := 0.0
	if untraced > 0 {
		v = 1 - traced/untraced
	}
	e.rep.set("trace.overhead_frac", v, fmt.Sprintf("1 - traced %.6g / untraced %.6g", traced, untraced))
	return a, nil
}

// clearLabels drops the pprof labels a goroutine inherited from the span
// that started it, so long-lived server goroutines do not carry the
// label of the setup span into later samples.
func clearLabels() { pprof.SetGoroutineLabels(context.Background()) }

// profiler is a CPU profile in progress.
type profiler struct {
	buf bytes.Buffer
	cpu time.Duration // process CPU time when profiling started
}

func startProfile() (*profiler, error) {
	p := &profiler{cpu: cpuTime()}
	// Setting the rate before StartCPUProfile is the way to sample
	// faster than pprof's fixed 100 Hz; the runtime then notes on stderr
	// that the rate was already set.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	return p, nil
}

// stop ends profiling, writes the raw profile to path and returns the
// per-layer attribution of its samples.
func (p *profiler) stop(path string) (attribution, error) {
	pprof.StopCPUProfile()
	cpu := cpuTime() - p.cpu
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return attribution{}, err
	}
	a, err := attribute(p.buf.Bytes())
	a.cpu = cpu
	return a, err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// layers are the per-layer groups of ftnoc/internal packages, in table
// order. A package absent from layerOf belongs to "support".
var layers = []string{"sim", "router", "link", "ecc", "fault", "ac", "routing", "network", "support", "campaign", "serve", "fabric"}

var layerOf = map[string]string{
	"sim":      "sim",
	"kernel":   "sim",
	"router":   "router",
	"link":     "link",
	"ecc":      "ecc",
	"fault":    "fault",
	"faultmap": "fault",
	"ac":       "ac",
	"routing":  "routing",
	"topology": "routing",
	"network":  "network",
	"campaign": "campaign",
	"serve":    "serve",
	"fabric":   "fabric",
}

const internalPrefix = "ftnoc/internal/"

// attribution is a CPU profile's samples charged to layers. Each sample
// goes to exactly one bucket: the layer of the ftnoc/internal package
// nearest the sample's leaf frame, else "gc" for a garbage-collector
// stack, else "unattributed" (runtime, net/http and the benchmark's own
// client code).
type attribution struct {
	total int64
	by    map[string]int64
	cpu   time.Duration // process CPU time while profiling
}

func (a attribution) frac(bucket string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.by[bucket]) / float64(a.total)
}

// ns estimates a bucket's CPU nanoseconds: its share of the samples
// times the CPU time the process used while profiling. Measuring the CPU
// time, rather than trusting the nominal sampling rate, keeps the
// estimate right when the timer delivers fewer samples than asked for.
func (a attribution) ns(bucket string) float64 { return a.frac(bucket) * float64(a.cpu) }

// bucketOf classifies one sample's stack, leaf first.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if l, ok := layerOf[pkg]; ok {
				return l
			}
			return "support"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") || strings.HasPrefix(f, "runtime.markroot") {
			return "gc"
		}
	}
	return "unattributed"
}

// attribute decodes a gzipped pprof profile and charges its samples.
func attribute(raw []byte) (attribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return attribution{}, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return attribution{}, fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(data)
	if err != nil {
		return attribution{}, err
	}
	a := attribution{by: make(map[string]int64)}
	for _, s := range prof.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range prof.locs[loc] {
				frames = append(frames, prof.str(prof.funcs[fn]))
			}
		}
		a.by[bucketOf(frames)] += s.count
		a.total += s.count
	}
	return a, nil
}

// cpuProfile is the subset of profile.proto the attribution needs.
type cpuProfile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]uint64   // function id -> name's string-table index
	strs    []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

func (p *cpuProfile) str(i uint64) string {
	if i < uint64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

var errProto = errors.New("profile: malformed protobuf")

// pbReader walks protobuf wire-format fields.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes. Fixed-width fields are skipped.
func (r *pbReader) next() (num int, v uint64, data []byte, isBytes bool, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, false, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, nil, false, errProto
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, nil, false, errProto
			}
			data, r.b, isBytes = r.b[:n], r.b[n:], true
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, nil, false, errProto
		}
		r.b = r.b[4:]
	default:
		err = errProto
	}
	return num, v, data, isBytes, err
}

// varints appends a repeated varint field, packed or not.
func varints(dst []uint64, v uint64, data []byte, isBytes bool) ([]uint64, error) {
	if !isBytes {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(data []byte) (*cpuProfile, error) {
	p := &cpuProfile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]uint64)}
	r := pbReader{data}
	for len(r.b) > 0 {
		num, _, msg, isBytes, err := r.next()
		if err != nil {
			return nil, err
		}
		if !isBytes {
			continue
		}
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			m := pbReader{msg}
			for len(m.b) > 0 {
				f, v, d, isB, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = varints(s.locs, v, d, isB)
				case 2:
					values, err = varints(values, v, d, isB)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := pbReader{msg}
			for len(m.b) > 0 {
				f, v, d, isB, err := m.next()
				if err != nil {
					return nil, err
				}
				switch {
				case f == 1:
					id = v
				case f == 4 && isB: // Line
					l := pbReader{d}
					for len(l.b) > 0 {
						lf, lv, _, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			p.locs[id] = fns
		case 5: // Function
			var id, name uint64
			m := pbReader{msg}
			for len(m.b) > 0 {
				f, v, _, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(msg))
		}
	}
	return p, nil
}

// traceDir holds the traced runs' spans and CPU profiles, inside the
// build directory run.sh uses.
const traceDir = ".bench_build/trace"

// traceFiles names a traced run's outputs, creating their directory.
func traceFiles(workload string, seed uint64) (spans, prof string, err error) {
	dir := traceDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	return base + ".spans.json", base + ".cpu.pprof", nil
}

// setSelfFracs records every layer's share of the profile's samples plus
// the two host shares; together they sum to 1.
func setSelfFracs(rep *report, a attribution) {
	sum := 0.0
	for _, l := range layers {
		f := a.frac(l)
		sum += f
		rep.set(l+".self_frac", f, fmt.Sprintf("%d / %d samples", a.by[l], a.total))
	}
	gc, un := a.frac("gc"), a.frac("unattributed")
	rep.set("host.gc_frac", gc, fmt.Sprintf("%d / %d samples", a.by["gc"], a.total))
	rep.set("host.unattributed_frac", un, fmt.Sprintf("%d / %d samples", a.by["unattributed"], a.total))
	rep.note("profile: %d samples over %.3f s CPU; layer self_frac sum %.4f + host %.4f = %.4f",
		a.total, a.cpu.Seconds(), sum, gc+un, sum+gc+un)
}
