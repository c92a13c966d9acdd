package sim

// Pipe is a latched delay line carrying values of type T with a fixed
// latency in cycles. A value pushed during cycle c becomes poppable at the
// start of cycle c+latency. Pipes are the only legal way for actors to
// communicate, guaranteeing that intra-cycle evaluation order never leaks.
//
// A Pipe with latency 1 models a register stage; the paper's single-cycle
// inter-router links, single-cycle NACK propagation, and single-cycle
// error-check delay are all latency-1 pipes.
//
// Internally the pipe is a ring of latency+1 reusable buffers: one visible
// buffer and latency in-flight stages. Advancing the ring recycles the
// drained visible buffer as the new staging buffer, so a pipe in steady
// state performs zero allocations. An empty pipe additionally disarms
// itself from the kernel's active-latch list, so idle wires cost nothing
// per cycle (see Kernel).
type Pipe[T any] struct {
	k       *Kernel
	latency int
	// bufs[vis] holds values visible now (with the first off already
	// consumed); bufs[(vis+i)%len] becomes visible after i more latches;
	// bufs[(vis+latency)%len] is the staging buffer collecting this
	// cycle's pushes. Each buffer may carry multiple values (e.g. a credit
	// pipe aggregating several VCs); ordering within a buffer is FIFO.
	bufs [][]T
	vis  int
	off  int
	// inline holds the buffer headers of short pipes (every wire in the
	// simulator), so reaching the visible or staging buffer does not
	// chase a pointer out of the pipe.
	inline [3][]T
	// held counts the values anywhere in the ring: staged, in-flight,
	// and visible-but-unpopped.
	held int
	// armed mirrors membership in the kernel's active-latch list.
	armed bool
	// wake, when set, runs whenever a latch leaves values visible — the
	// delivery signal that returns a quiescent consumer to the active set.
	wake func()
}

// NewPipe creates a delay line with the given latency (>= 1) and registers
// it with the kernel for end-of-cycle latching.
func NewPipe[T any](k *Kernel, latency int) *Pipe[T] {
	p := new(Pipe[T])
	p.Init(k, latency)
	return p
}

// Init prepares a zero Pipe in place, like NewPipe, so a pipe can be
// embedded by value in the structure that owns it. The pipe must not be
// copied afterwards: the kernel's active-latch list holds its address.
func (p *Pipe[T]) Init(k *Kernel, latency int) {
	if latency < 1 {
		panic("sim: pipe latency must be >= 1")
	}
	*p = Pipe[T]{k: k, latency: latency}
	if latency < len(p.inline) {
		p.bufs = p.inline[:latency+1]
	} else {
		p.bufs = make([][]T, latency+1)
	}
}

// SetWake installs the delivery callback: it runs at the end of any cycle
// whose latch leaves at least one value visible, signalling the pipe's
// consumer to wake (see Kernel.Waker). At most one callback is supported.
func (p *Pipe[T]) SetWake(wake func()) { p.wake = wake }

// Latency returns the pipe's configured delay in cycles.
func (p *Pipe[T]) Latency() int { return p.latency }

// Push enqueues v for delivery latency cycles from now.
func (p *Pipe[T]) Push(v T) {
	s := (p.vis + p.latency) % len(p.bufs)
	p.bufs[s] = append(p.bufs[s], v)
	p.held++
	if !p.armed {
		p.armed = true
		p.k.arm(p)
	}
}

// Pop removes and returns the oldest value visible this cycle. ok is false
// if no value is available.
func (p *Pipe[T]) Pop() (v T, ok bool) {
	head := p.bufs[p.vis]
	if p.off >= len(head) {
		return v, false
	}
	v = head[p.off]
	p.off++
	p.held--
	return v, true
}

// Peek returns the oldest visible value without removing it.
func (p *Pipe[T]) Peek() (v T, ok bool) {
	head := p.bufs[p.vis]
	if p.off >= len(head) {
		return v, false
	}
	return head[p.off], true
}

// PopAll removes and returns every value visible this cycle. The returned
// slice aliases the pipe's internal ring buffer and is valid only until
// the next latch; callers must consume (or copy) it within the cycle.
func (p *Pipe[T]) PopAll() []T {
	head := p.bufs[p.vis][p.off:]
	p.off = len(p.bufs[p.vis])
	p.held -= len(head)
	return head
}

// Empty reports whether no value is visible this cycle. Values still in
// flight (pushed fewer than latency cycles ago) do not count.
func (p *Pipe[T]) Empty() bool { return p.off >= len(p.bufs[p.vis]) }

// InFlight reports the total number of values buffered anywhere in the
// pipe, including those not yet visible and any not yet latched.
func (p *Pipe[T]) InFlight() int { return p.held }

// Each visits every value still held by the pipe — visible-but-unpopped,
// in-flight, and staged this cycle — in no particular order. It is a
// read-only inspection for invariant checkers and debug tooling; fn must
// not push or pop.
func (p *Pipe[T]) Each(fn func(T)) {
	for i := 0; i <= p.latency; i++ {
		b := p.bufs[(p.vis+i)%len(p.bufs)]
		if i == 0 {
			b = b[p.off:]
		}
		for _, v := range b {
			fn(v)
		}
	}
}

// Filter destructively removes every value v for which remove(v) is
// true, from every stage of the pipe — visible-but-unpopped, in-flight,
// and staged — invoking fn (if non-nil) on each removed value. It
// returns the number removed. It is the hard-fault machinery's
// wire-destruction primitive and must run between kernel steps, never
// from an actor tick. Relative order of the kept values is preserved.
func (p *Pipe[T]) Filter(remove func(T) bool, fn func(T)) int {
	removed := 0
	for i := 0; i <= p.latency; i++ {
		idx := (p.vis + i) % len(p.bufs)
		b := p.bufs[idx]
		lo := 0
		if i == 0 {
			lo = p.off
		}
		kept := lo
		for j := lo; j < len(b); j++ {
			if remove(b[j]) {
				removed++
				if fn != nil {
					fn(b[j])
				}
				continue
			}
			b[kept] = b[j]
			kept++
		}
		p.bufs[idx] = b[:kept]
	}
	p.held -= removed
	return removed
}

// latch advances the delay line by one cycle. It reports whether the pipe
// still holds values and must stay on the kernel's active-latch list; an
// all-empty pipe's latch is the identity (rotating empty buffers), so
// skipping it is exact, not an approximation.
func (p *Pipe[T]) latch() bool {
	// Undelivered visible values remain visible (the new visible buffer
	// accumulates them at its front), so a consumer that stalls does not
	// lose data. The carry moves to the front of the drained visible
	// buffer, the next stage's values are appended behind it, and the two
	// buffers trade places: once both have grown to size, carrying costs
	// no allocation. With nothing consumed and nothing arriving (a
	// quiescent consumer letting credits/NACKs pool) the trade is a swap,
	// with no copy however long the consumer sleeps.
	cur := p.bufs[p.vis]
	next := (p.vis + 1) % len(p.bufs)
	if p.off < len(cur) {
		n := len(cur) - p.off
		if p.off > 0 {
			copy(cur, cur[p.off:])
		}
		p.bufs[p.vis], p.bufs[next] = p.bufs[next], append(cur[:n], p.bufs[next]...)
	}
	p.bufs[p.vis] = p.bufs[p.vis][:0]
	p.vis = next
	p.off = 0
	if len(p.bufs[p.vis]) > 0 && p.wake != nil {
		p.wake()
	}
	p.armed = p.held != 0
	return p.armed
}
