// Package sim provides the cycle-driven simulation kernel underneath the
// network model: a deterministic clock, actor scheduling, and latched
// delay lines that decouple intra-cycle evaluation order from observable
// behaviour.
//
// The kernel is synchronous. Each call to Kernel.Step advances the global
// clock by one cycle in two phases:
//
//  1. every registered Actor's Tick(cycle) runs, reading only values
//     latched in previous cycles and writing only into delay lines;
//  2. every delay line advances, making this cycle's writes visible at
//     their programmed latency.
//
// Because actors never observe same-cycle writes, the order in which they
// tick is immaterial, which is what makes the model cycle-accurate rather
// than merely event-ordered.
//
// # Quiescence
//
// An actor that also implements Quiescer may report, after a tick, that it
// is idle until woken. The kernel then stops ticking it — a skipped actor
// must be observationally indistinguishable from one that ticked while
// idle, which is the actor's contract to uphold (see DESIGN.md, "Kernel
// performance"). A quiescent actor returns to the active set when
//
//   - a delay line delivers a value to it (the pipe's wake callback, wired
//     via Waker, fires when a latch leaves values visible), or
//   - its self-declared timed wake cycle arrives (for purely clock-driven
//     work such as a traffic source's next injection slot).
//
// # Scheduling modes
//
// SetMode selects between two schedulers that share the actor/latch model
// and produce identical simulations:
//
//   - ModeEvent (the zero value) is a calendar-queue discrete-event
//     scheduler: each actor carries a pending-tick cycle, due handles are
//     drained from a 256-bucket ring (plus an overflow min-heap for
//     far-future wakes), and cost scales with dispatched events rather
//     than cycles x actors. Busy actors simply reschedule themselves for
//     the next cycle, so a fully-active network degenerates gracefully to
//     the per-cycle walk, and an actor that is not an enabled Quiescer
//     ticks every cycle.
//   - ModeNaive ticks every actor every cycle — the historical exhaustive
//     schedule, kept as the differential oracle. It never consults
//     Quiescer.
//
// Latch skipping stays on in both modes: an empty pipe's latch is the
// identity, so eliding it is exact. Due handles are dispatched in
// ascending registration order, keeping intra-cycle trace order identical
// across schedulers.
package sim

import "slices"

// Actor is a component evaluated once per simulated clock cycle.
type Actor interface {
	// Tick evaluates one cycle of behaviour. Implementations must read
	// only state latched before this cycle and buffer their outputs in
	// delay lines (or internal next-state fields committed by a latch
	// Actor registered after them).
	Tick(cycle uint64)
}

// ActorFunc adapts a function to the Actor interface.
type ActorFunc func(cycle uint64)

// Tick implements Actor.
func (f ActorFunc) Tick(cycle uint64) { f(cycle) }

// Quiescer is optionally implemented by actors that can prove themselves
// idle. Quiescent is consulted immediately after each of the actor's own
// ticks; returning quiet=true suspends the actor until a pipe delivery
// wakes it or, if wakeAt > cycle, until that cycle arrives.
//
// The contract: while suspended, the actor's tick must have been a
// semantic no-op apart from state it can reconstruct on wake (catch-up),
// and every external input it reacts to must arrive through a delay line
// whose wake callback targets it (or be covered by the timed wake).
type Quiescer interface {
	Actor
	// Quiescent reports whether the actor is idle after ticking cycle.
	// wakeAt, when > cycle, schedules an unconditional wake at that cycle;
	// wakeAt == 0 means "sleep until a delivery wakes me".
	Quiescent(cycle uint64) (quiet bool, wakeAt uint64)
}

// Handle identifies a registered actor, for wake wiring.
type Handle int

// Mode selects the kernel's scheduling strategy. Both modes simulate the
// same network identically; they differ only in which cycles an actor's
// Tick is physically invoked on (skipped ticks are provably no-ops).
type Mode uint8

const (
	// ModeEvent dispatches only due actors from a calendar queue. The
	// zero value.
	ModeEvent Mode = iota
	// ModeNaive ticks every actor every cycle (differential oracle).
	ModeNaive
)

// Stats is the kernel's cumulative scheduling telemetry. Ticked counts
// actor ticks executed; Skipped counts actor ticks elided relative to the
// naive every-actor-every-cycle schedule (always zero under ModeNaive, so
// the skip ratio is comparable across schedulers); Events counts
// calendar-queue dispatches and is zero under ModeNaive.
type Stats struct {
	Ticked  uint64
	Skipped uint64
	Events  uint64
}

// activeLatch is implemented by delay lines; the kernel advances armed
// ones after all actors have ticked. latch reports whether the line still
// holds values and must remain armed.
type activeLatch interface {
	latch() bool
}

// wakeEntry is one far-future scheduled tick in the overflow min-heap.
type wakeEntry struct {
	at uint64
	h  Handle
}

const (
	// numBuckets sizes the calendar-queue ring. Wakes due within the next
	// numBuckets-1 cycles go in the ring (O(1) insert/drain); anything
	// further — rare: retention sweeps, low-rate sources — overflows to
	// the heap. Power of two so the bucket index is a mask, and larger
	// than every latency constant in the model (pipe depths, NACK window,
	// reprobe interval) so steady-state scheduling never touches the heap.
	numBuckets = 256
	bucketMask = numBuckets - 1

	// noPending marks an actor with no scheduled tick.
	noPending = ^uint64(0)
)

// Kernel drives a set of actors and delay lines through simulated time.
// The zero value is ready to use and schedules with ModeEvent.
type Kernel struct {
	cycle  uint64
	actors []Actor
	// quiescers[i] is actors[i] if it implements Quiescer, else nil.
	quiescers []Quiescer
	asleep    []bool
	// armed holds the armed delay lines; pipes arm themselves on Push and
	// disarm by returning false from latch.
	armed []activeLatch

	// Calendar queue (ModeEvent). pendingAt[i] is the cycle actor i is
	// scheduled to tick on (noPending = none); ring buckets hold handles
	// due within numBuckets cycles, keyed by cycle & bucketMask, and heap
	// holds the far-future rest. Entries whose pendingAt no longer
	// matches the drain cycle are stale — superseded by an earlier wake —
	// and skipped, so duplicates are harmless.
	pendingAt []uint64
	buckets   [numBuckets][]Handle
	heap      []wakeEntry
	due       []Handle
	evInit    bool

	mode    Mode
	ticked  uint64
	skipped uint64
	events  uint64
}

// Register adds actors to the kernel. Actors tick in registration order,
// though correctness must not depend on that order.
func (k *Kernel) Register(actors ...Actor) {
	for _, a := range actors {
		k.RegisterActor(a)
	}
}

// RegisterActor adds one actor and returns its handle, for wake wiring
// via Waker.
//
// Implementing Quiescer is not by itself enough to be skipped: skipping
// an actor is only sound once every delay line feeding it has a wake
// callback installed, which the kernel cannot verify. Whoever does that
// wiring opts the actor in with EnableQuiescence.
func (k *Kernel) RegisterActor(a Actor) Handle {
	h := Handle(len(k.actors))
	k.actors = append(k.actors, a)
	k.quiescers = append(k.quiescers, nil)
	k.asleep = append(k.asleep, false)
	k.pendingAt = append(k.pendingAt, noPending)
	if k.evInit {
		k.scheduleTick(h, k.cycle+1)
	}
	return h
}

// EnableQuiescence opts a registered Quiescer into idle skipping. Call
// only after wiring wake callbacks on every pipe that delivers to it. A
// non-Quiescer actor is left untouched.
func (k *Kernel) EnableQuiescence(h Handle) {
	if q, ok := k.actors[h].(Quiescer); ok {
		k.quiescers[h] = q
	}
}

// Waker returns the wake callback for an actor: invoking it returns the
// actor to the active set so it ticks next cycle. Safe to call on awake
// actors (no-op) and repeatedly.
func (k *Kernel) Waker(h Handle) func() {
	return func() {
		if k.mode == ModeNaive {
			return // every actor ticks every cycle anyway
		}
		k.asleep[h] = false
		k.scheduleTick(h, k.cycle+1)
	}
}

// Asleep reports whether the actor is currently suspended as quiescent.
// An actor merely awaiting its next-cycle tick is not asleep; only one
// that declared itself quiet is.
func (k *Kernel) Asleep(h Handle) bool { return k.asleep[h] }

// SetMode selects the scheduler. Must be set before stepping.
func (k *Kernel) SetMode(m Mode) { k.mode = m }

// Stats returns the kernel's cumulative scheduling telemetry.
func (k *Kernel) Stats() Stats {
	return Stats{Ticked: k.ticked, Skipped: k.skipped, Events: k.events}
}

// arm adds a delay line to the active-latch list (called by Pipe.Push).
func (k *Kernel) arm(l activeLatch) { k.armed = append(k.armed, l) }

// heapPush schedules an entry on a min-heap ordered by at.
func heapPush(heap *[]wakeEntry, e wakeEntry) {
	h := append(*heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].at <= h[i].at {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	*heap = h
}

// heapPop removes and returns the earliest entry.
func heapPop(heap *[]wakeEntry) wakeEntry {
	h := *heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].at < h[small].at {
			small = l
		}
		if r < len(h) && h[r].at < h[small].at {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*heap = h
	return top
}

// scheduleTick (ModeEvent) records that actor h must tick at cycle at,
// unless an earlier tick is already pending. Near wakes go in the ring
// bucket for their cycle — an entry lands in bucket at&bucketMask only
// when at is the next cycle with that residue, so every entry in a
// drained bucket is due exactly then; far wakes overflow to the heap.
// Superseded entries are left in place and filtered at drain time.
func (k *Kernel) scheduleTick(h Handle, at uint64) {
	if at <= k.cycle {
		at = k.cycle + 1
	}
	if k.pendingAt[h] <= at {
		return
	}
	k.pendingAt[h] = at
	if at-k.cycle < numBuckets {
		b := &k.buckets[at&bucketMask]
		*b = append(*b, h)
	} else {
		heapPush(&k.heap, wakeEntry{at: at, h: h})
	}
}

// Cycle returns the number of completed cycles.
func (k *Kernel) Cycle() uint64 { return k.cycle }

// Step advances simulated time by one cycle.
func (k *Kernel) Step() {
	if k.mode == ModeNaive {
		c := k.cycle
		for _, a := range k.actors {
			a.Tick(c)
		}
		k.ticked += uint64(len(k.actors))
	} else {
		k.stepEvent()
	}
	k.latchAndAdvance()
}

// stepEvent runs one cycle's actor phase under the calendar-queue
// scheduler: drain this cycle's ring bucket plus any due overflow-heap
// entries, dispatch the surviving handles in registration order, and let
// each actor either reschedule for the next cycle (busy), sleep until a
// delivery (quiet), or sleep with a timed wake (quiet with a deadline).
func (k *Kernel) stepEvent() {
	c := k.cycle
	if !k.evInit {
		// First event-mode step: every registered actor starts due now.
		k.evInit = true
		b := &k.buckets[c&bucketMask]
		for h := range k.actors {
			k.pendingAt[h] = c
			*b = append(*b, Handle(h))
		}
	}

	// Collect due handles. The bucket is copied then truncated in place:
	// reschedules during dispatch target later cycles, so they can never
	// land back in this cycle's bucket (at == c+numBuckets overflows to
	// the heap rather than aliasing the ring).
	due := k.due[:0]
	b := &k.buckets[c&bucketMask]
	due = append(due, (*b)...)
	*b = (*b)[:0]
	for len(k.heap) > 0 && k.heap[0].at <= c {
		due = append(due, heapPop(&k.heap).h)
	}
	// Registration order = tick order, matching the naive schedule's
	// intra-cycle trace order exactly.
	slices.Sort(due)

	ticked := 0
	for _, h := range due {
		if k.pendingAt[h] != c {
			continue // superseded by an earlier wake, or a duplicate
		}
		k.pendingAt[h] = noPending
		k.asleep[h] = false
		k.actors[h].Tick(c)
		ticked++
		k.events++
		if q := k.quiescers[h]; q != nil {
			if quiet, at := q.Quiescent(c); quiet {
				k.asleep[h] = true
				if at > c {
					k.scheduleTick(h, at)
				}
				continue
			}
		}
		k.scheduleTick(h, c+1)
	}
	k.due = due[:0]
	k.ticked += uint64(ticked)
	k.skipped += uint64(len(k.actors) - ticked)
}

// latchAndAdvance runs the cycle's latch phase and advances the clock.
// Latch-order equals arm-order, which may differ from historical
// registration order — sound because latches are independent: each
// pipe only rotates its own ring. Wake callbacks fired here return
// consumers to the active set for the next cycle.
func (k *Kernel) latchAndAdvance() {
	n := 0
	for _, l := range k.armed {
		if l.latch() {
			k.armed[n] = l
			n++
		}
	}
	k.armed = k.armed[:n]
	k.cycle++
}

// Run advances simulated time by n cycles.
func (k *Kernel) Run(n uint64) {
	for i := uint64(0); i < n; i++ {
		k.Step()
	}
}

// RunUntil steps the kernel until done returns true or limit cycles have
// elapsed. It returns true if done was satisfied within the limit.
func (k *Kernel) RunUntil(done func() bool, limit uint64) bool {
	for i := uint64(0); i < limit; i++ {
		if done() {
			return true
		}
		k.Step()
	}
	return done()
}
