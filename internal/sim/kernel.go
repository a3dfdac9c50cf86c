// Package sim provides a sequential discrete-event simulation kernel:
// a virtual clock, an event heap with deterministic tie-breaking, and
// cancellable timers. It is the substrate every other package in this
// repository runs on.
//
// The kernel is deliberately single-threaded: wireless protocol
// simulations are causally ordered by the event heap, and determinism
// (same seed, same schedule, same results) matters more than intra-run
// parallelism. Parallelism belongs one level up, across runs (see
// internal/sweep).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Time is simulation time in seconds since the start of the run.
type Time float64

// Infinity is a time later than any schedulable event.
const Infinity Time = Time(math.MaxFloat64)

// Duration helpers.

// Millis returns t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) * 1e3 }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) * 1e6 }

// Seconds returns t as a plain float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// Event is a scheduled callback. Events are owned by the Kernel; user
// code holds *Event only to cancel or inspect it.
type Event struct {
	at       Time
	fn       func()
	index    int // position in the heap, -1 when not queued
	tagIndex int // position in the tagged index, -1 when untagged
	kernel   *Kernel
}

// At returns the time the event is (or was) scheduled to fire.
func (e *Event) At() Time { return e.at }

// Pending reports whether the event is still queued to fire.
func (e *Event) Pending() bool { return e != nil && e.index >= 0 }

// heapNode is one slot of the event queue. The ordering keys live
// inline in the heap array — a sift compares adjacent array slots
// instead of dereferencing two *Event pointers, which is where most of
// container/heap's cache misses came from.
type heapNode struct {
	at  Time
	seq uint64 // insertion order, breaks ties deterministically
	e   *Event
}

// before orders nodes by (time, insertion sequence). The pair is a
// total order — seq is unique — so the pop sequence is independent of
// heap shape, which is what makes the heap arity an implementation
// detail rather than a determinism concern.
func (n heapNode) before(o heapNode) bool {
	//lint:ignore floateq stored timestamps are compared verbatim for tie-breaking, never recomputed
	if n.at != o.at {
		return n.at < o.at
	}
	return n.seq < o.seq
}

// EventPool is a free list of recycled Event structs; DES workloads
// allocate millions of events and recycling them keeps GC pressure
// flat without reaching for unsafe tricks. The pool is allowed to grow
// with the peak queue depth (see recycle) so steady-state runs stop
// allocating entirely.
//
// A pool may outlive the kernel that filled it: a sweep worker hands
// one pool to each replication's kernel in turn, so after the first
// cell warms it, later cells schedule out of recycled memory. Pooled
// events carry no kernel state (recycle clears fn and kernel), but the
// pool itself is plain mutable state — it must never be shared between
// kernels that run concurrently.
type EventPool struct {
	free []*Event

	// live counts events currently checked out (allocated or reused via
	// At and not yet recycled); peak is its high-water mark since the
	// last Reset. Together they are the shrink watermark: a pool that
	// served a million-event cell and is then reused for a hundred-event
	// cell trims back to what the recent workload actually needed
	// instead of pinning the largest cell's memory for the whole sweep.
	live int
	peak int
}

// NewEventPool returns an empty pool, ready to hand to NewKernelPooled.
func NewEventPool() *EventPool { return &EventPool{} }

// FreeLen returns the current free-list length (spare events held).
func (p *EventPool) FreeLen() int { return len(p.free) }

// Live returns the number of events currently checked out. Live and
// Peak are behavioral state — they rebuild identically when the same
// schedule replays — while FreeLen is allocation history (how warm the
// pool happened to be), which NewKernelPooled's bit-for-bit equivalence
// contract explicitly keeps out of results; snapshot fingerprints hash
// the former and ignore the latter.
func (p *EventPool) Live() int { return p.live }

// Peak returns the high-water checked-out event count since the last
// Reset — the watermark Reset shrinks to.
func (p *EventPool) Peak() int { return p.peak }

// Reset shrinks the free list to the watermark of the workload since
// the previous Reset and restarts tracking. Call it between runs (no
// kernel may be live on the pool): the next run of similar size reuses
// every retained event, while a smaller run no longer pays the largest
// predecessor's footprint. Dropped slots are nil'd so the events are
// collectable, and a grossly oversized backing array is reallocated so
// the slice header itself cannot pin the old peak.
func (p *EventPool) Reset() {
	keep := p.peak
	if keep > len(p.free) {
		keep = len(p.free)
	}
	for i := keep; i < len(p.free); i++ {
		p.free[i] = nil
	}
	p.free = p.free[:keep]
	if cap(p.free) > 2*keep+64 {
		p.free = append(make([]*Event, 0, keep), p.free...)
	}
	p.live, p.peak = 0, 0
}

// Kernel is a discrete-event scheduler. The zero value is not usable;
// construct with NewKernel.
type Kernel struct {
	now       Time
	seq       uint64
	events    []heapNode // 4-ary min-heap ordered by (at, seq)
	rng       *rand.Rand
	processed uint64
	horizon   Time

	// Tagged-event index: a secondary min-heap (by time only) over the
	// subset of pending events registered via AtTagged/ScheduleTagged.
	// PDES uses it to lower-bound the next transmission-capable event
	// without scanning the main heap. Off by default: until
	// EnableTagTracking is called, tagging is a no-op and AtTagged is
	// exactly At — same seq numbers, same pop order, zero overhead.
	trackTags bool
	tagged    []*Event

	// pool recycles Event structs. Private to the kernel by default;
	// NewKernelPooled substitutes an externally owned pool so the free
	// list survives the kernel and warms the next run.
	pool *EventPool
}

// NewKernel returns a kernel whose clock starts at 0 and whose random
// stream is seeded with seed. All randomness used by simulation
// components should derive from Rand() (directly or via rng.Split) so a
// run is reproducible from its seed.
func NewKernel(seed int64) *Kernel {
	return NewKernelPooled(seed, NewEventPool())
}

// NewKernelPooled is NewKernel drawing recycled Event structs from an
// externally owned pool. Recycling never changes event semantics —
// every field is reinitialized on reuse — so a pooled kernel is
// bit-for-bit equivalent to a fresh one; only the allocation count
// differs. The caller must ensure no two concurrently running kernels
// share one pool.
func NewKernelPooled(seed int64, pool *EventPool) *Kernel {
	if pool == nil {
		pool = NewEventPool()
	}
	return &Kernel{
		rng:     rand.New(rand.NewSource(seed)),
		horizon: Infinity,
		pool:    pool,
	}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's master random stream.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of events currently queued.
func (k *Kernel) Pending() int { return len(k.events) }

// Seq returns the scheduling sequence counter: the total number of
// events ever queued on this kernel. Together with Now, Processed, and
// the pending (at, seq) keys it pins the scheduler's externally
// observable state exactly — a restored kernel whose Seq differs would
// break ties differently on the very next same-time scheduling race.
func (k *Kernel) Seq() uint64 { return k.seq }

// EventKey is one pending event's position in the execution order.
type EventKey struct {
	At  Time
	Seq uint64
}

// PendingKeys returns the (at, seq) key of every pending event in
// ascending execution order. The heap's internal layout is shape-
// dependent, but the sorted key sequence is not, so this is the
// canonical form snapshot fingerprints hash. It allocates; not for hot
// paths.
func (k *Kernel) PendingKeys() []EventKey {
	keys := make([]EventKey, len(k.events))
	for i, hn := range k.events {
		keys[i] = EventKey{At: hn.at, Seq: hn.seq}
	}
	slices.SortFunc(keys, func(a, b EventKey) int {
		if a.At < b.At {
			return -1
		}
		if a.At > b.At {
			return 1
		}
		if a.Seq < b.Seq {
			return -1
		}
		if a.Seq > b.Seq {
			return 1
		}
		return 0
	})
	return keys
}

// Pool returns the kernel's event pool (never nil: NewKernelPooled
// substitutes a private pool when handed none).
func (k *Kernel) Pool() *EventPool { return k.pool }

// Schedule queues fn to run delay seconds after the current time and
// returns the event handle. A negative delay panics: an event in the
// past would violate causality.
func (k *Kernel) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at t=%v", delay, k.now))
	}
	return k.At(k.now+delay, fn)
}

// At queues fn to run at absolute time t (which must not precede the
// current time) and returns the event handle.
func (k *Kernel) At(t Time, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	var e *Event
	if n := len(k.pool.free); n > 0 {
		e = k.pool.free[n-1]
		k.pool.free = k.pool.free[:n-1]
	} else {
		e = &Event{}
	}
	k.pool.live++
	if k.pool.live > k.pool.peak {
		k.pool.peak = k.pool.live
	}
	e.at = t
	e.fn = fn
	e.kernel = k
	e.index = len(k.events)
	e.tagIndex = -1
	k.events = append(k.events, heapNode{at: t, seq: k.seq, e: e})
	k.seq++
	k.siftUp(len(k.events) - 1)
	return e
}

// EnableTagTracking turns on the tagged-event index. Call before any
// AtTagged/ScheduleTagged whose tag should be tracked; kernels that
// never enable it pay nothing for tagging.
func (k *Kernel) EnableTagTracking() { k.trackTags = true }

// AtTagged is At plus membership in the tagged-event index (when
// tracking is enabled). Tagging is scheduling-neutral: the event gets
// the same seq number and fires in the same order as an At event.
func (k *Kernel) AtTagged(t Time, fn func()) *Event {
	e := k.At(t, fn)
	if k.trackTags {
		k.tagPush(e)
	}
	return e
}

// ScheduleTagged is Schedule plus membership in the tagged-event index.
func (k *Kernel) ScheduleTagged(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at t=%v", delay, k.now))
	}
	return k.AtTagged(k.now+delay, fn)
}

// PeekTime returns the timestamp of the earliest pending event, or
// Infinity when the queue is empty.
func (k *Kernel) PeekTime() Time {
	if len(k.events) == 0 {
		return Infinity
	}
	return k.events[0].at
}

// PeekTagged returns the timestamp of the earliest pending tagged
// event, or Infinity when none is pending.
func (k *Kernel) PeekTagged() Time {
	if len(k.tagged) == 0 {
		return Infinity
	}
	return k.tagged[0].at
}

// tagPush inserts e into the tagged index (binary min-heap by time;
// ties in arbitrary order — only the minimum timestamp is ever read).
func (k *Kernel) tagPush(e *Event) {
	i := len(k.tagged)
	k.tagged = append(k.tagged, e)
	e.tagIndex = i
	for i > 0 {
		parent := (i - 1) >> 1
		p := k.tagged[parent]
		if p.at <= e.at {
			break
		}
		k.tagged[i] = p
		p.tagIndex = i
		i = parent
	}
	k.tagged[i] = e
	e.tagIndex = i
}

// tagRemove deletes e from the tagged index.
func (k *Kernel) tagRemove(e *Event) {
	i := e.tagIndex
	e.tagIndex = -1
	n := len(k.tagged) - 1
	last := k.tagged[n]
	k.tagged[n] = nil
	k.tagged = k.tagged[:n]
	if i == n {
		return
	}
	k.tagged[i] = last
	last.tagIndex = i
	// The displaced event can be out of order in either direction.
	for {
		child := i<<1 + 1
		if child >= n {
			break
		}
		if c2 := child + 1; c2 < n && k.tagged[c2].at < k.tagged[child].at {
			child = c2
		}
		if k.tagged[child].at >= last.at {
			break
		}
		k.tagged[i] = k.tagged[child]
		k.tagged[i].tagIndex = i
		i = child
	}
	k.tagged[i] = last
	last.tagIndex = i
	for i > 0 {
		parent := (i - 1) >> 1
		p := k.tagged[parent]
		if p.at <= last.at {
			break
		}
		k.tagged[i] = p
		p.tagIndex = i
		i = parent
	}
	k.tagged[i] = last
	last.tagIndex = i
}

// Cancel removes a pending event. Cancelling a nil, already-fired or
// already-cancelled event is a no-op, so callers can cancel
// unconditionally.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.index < 0 || e.kernel != k {
		return
	}
	if e.tagIndex >= 0 {
		k.tagRemove(e)
	}
	i := e.index
	n := len(k.events) - 1
	last := k.events[n]
	k.events[n] = heapNode{}
	k.events = k.events[:n]
	e.index = -1
	if i < n {
		k.events[i] = last
		last.e.index = i
		// The displaced event can be out of order in either direction.
		k.siftDown(i)
		if last.e.index == i {
			k.siftUp(i)
		}
	}
	k.recycle(e)
}

func (k *Kernel) recycle(e *Event) {
	e.fn = nil
	e.kernel = nil
	k.pool.live--
	// Retain enough spares to cover the live queue: once the free list
	// matches the peak in-flight event count, every At() is a reuse.
	if len(k.pool.free) < len(k.events)+64 {
		k.pool.free = append(k.pool.free, e)
	}
}

// Step executes the earliest pending event. It returns false when the
// queue is empty or the next event lies beyond the horizon.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	root := k.events[0]
	if root.at > k.horizon {
		return false
	}
	e := root.e
	n := len(k.events) - 1
	last := k.events[n]
	k.events[n] = heapNode{}
	k.events = k.events[:n]
	if n > 0 {
		k.events[0] = last
		last.e.index = 0
		k.siftDown(0)
	}
	e.index = -1
	if e.tagIndex >= 0 {
		k.tagRemove(e)
	}
	k.now = root.at
	fn := e.fn
	k.recycle(e)
	k.processed++
	fn()
	return true
}

// Run executes events until the queue drains or the horizon passes.
func (k *Kernel) Run() {
	for k.Step() {
	}
	if k.horizon < Infinity && k.now < k.horizon {
		k.now = k.horizon
	}
}

// RunUntil executes events with timestamps not exceeding t, then
// advances the clock to t. It is legal to call RunUntil repeatedly with
// increasing times.
func (k *Kernel) RunUntil(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, k.now))
	}
	old := k.horizon
	k.horizon = t
	for k.Step() {
	}
	k.horizon = old
	k.now = t
}

// RunUntilBarrier executes events with timestamps strictly before t,
// then advances the clock to t. Unlike RunUntil, events at exactly t
// stay pending: t is a PDES epoch barrier, and events on the barrier
// belong to the next window (after cross-tile deliveries at t have
// been merged in).
func (k *Kernel) RunUntilBarrier(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: RunUntilBarrier(%v) before now %v", t, k.now))
	}
	for len(k.events) > 0 && k.events[0].at < t {
		k.Step()
	}
	k.now = t
}

// SetHorizon caps Run: events scheduled after t never execute. Use
// Infinity to remove the cap.
func (k *Kernel) SetHorizon(t Time) { k.horizon = t }

// The event queue is a 4-ary min-heap stored implicitly in k.events:
// children of node i live at 4i+1..4i+4. Compared to the binary
// container/heap it replaces, the typed heap avoids interface boxing on
// every push/pop, halves the tree depth (shorter sift paths through a
// millions-deep event stream), and lets the sift loops hold the moving
// event in a register instead of swapping element pairs through the
// slice. The comparator is the same (at, seq) total order, so pop order
// — and therefore every simulation result — is unchanged.

// siftUp moves the node at index i toward the root until its parent is
// not after it.
func (k *Kernel) siftUp(i int) {
	h := k.events
	nd := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !nd.before(p) {
			break
		}
		h[i] = p
		p.e.index = i
		i = parent
	}
	h[i] = nd
	nd.e.index = i
}

// siftDown moves the node at index i toward the leaves until no child
// precedes it.
func (k *Kernel) siftDown(i int) {
	h := k.events
	n := len(h)
	nd := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		bn := h[first]
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if cn := h[c]; cn.before(bn) {
				best, bn = c, cn
			}
		}
		if !bn.before(nd) {
			break
		}
		h[i] = bn
		bn.e.index = i
		i = best
	}
	h[i] = nd
	nd.e.index = i
}
