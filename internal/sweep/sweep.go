// Package sweep is the deterministic multicore experiment engine.
// Every experiment flattens into a flat list of cells — one
// (figure, parameter point, replication) triple each — and Run executes
// the cells across a work-stealing worker pool, merging results back in
// fixed cell order. Because each cell derives all of its randomness
// from its own seed, and because results land at the cell's index, the
// output — and therefore every CSV table, metrics snapshot, and JSONL
// journal built from it — is byte-identical for any worker count,
// including 1.
//
// Each worker owns a reusable run context (Context): a kernel event
// free list, the phy signal/delivery pools, and a cross-model range
// cache, threaded into networks via node.Config.Runtime. Shared caches
// are therefore never touched concurrently, and steady-state
// allocations per cell drop as a worker's pools warm up instead of
// multiplying with cores. The simlint `sharedcap` rule enforces the
// ownership discipline at the boundary: cell functions must not capture
// shared mutable state — anything reusable comes in through the
// Context.
package sweep

import (
	"runtime"
	"sync"

	"routeless/internal/node"
)

// Cell is one unit of sweep work: one replication of one parameter
// point of one figure. Point is an index into the experiment's
// flattened x-axis (experiments fold variant axes — protocol, SSAF
// on/off — into the point index); Rep is the replication index and
// Seed the replication's master seed.
type Cell struct {
	Figure string
	Point  int
	Rep    int
	Seed   int64
}

// Cells enumerates the canonical flat cell list for one figure:
// point-major, replication-minor, one cell per (point, seed) pair.
// Merge loops iterate the same list in the same order, which is what
// pins journal bytes and aggregate fold order regardless of how the
// cells were scheduled.
func Cells(figure string, points int, seeds []int64) []Cell {
	out := make([]Cell, 0, points*len(seeds))
	for p := 0; p < points; p++ {
		for r, s := range seeds {
			out = append(out, Cell{Figure: figure, Point: p, Rep: r, Seed: s})
		}
	}
	return out
}

// Context is one worker's reusable run context. Exactly one worker
// goroutine owns a Context for the duration of a sweep; cell functions
// receive it and must thread Runtime() into node.Config (and nowhere
// else) so every pooled object stays worker-private.
type Context struct {
	worker int
	rt     *node.Runtime
}

// Worker returns the owning worker's index in [0, workers).
func (c *Context) Worker() int { return c.worker }

// Runtime returns the worker's reusable allocation state for
// node.Config.Runtime.
func (c *Context) Runtime() *node.Runtime { return c.rt }

// queue hands out cell indices to workers. Each worker owns a
// contiguous span and claims from its front; a worker whose span is
// empty steals the back half of the richest remaining span. One mutex
// guards all spans: a claim is a few integer operations, while a cell
// is an entire simulation run — contention is unmeasurable, and the
// simplicity keeps the scheduler obviously deadlock-free.
type queue struct {
	mu    sync.Mutex
	spans []span
}

type span struct{ next, end int }

func newQueue(n, workers int) *queue {
	q := &queue{spans: make([]span, workers)}
	// Contiguous partition, remainder spread over the leading workers.
	per, rem := n/workers, n%workers
	start := 0
	for w := range q.spans {
		size := per
		if w < rem {
			size++
		}
		q.spans[w] = span{next: start, end: start + size}
		start += size
	}
	return q
}

// claim returns the next cell index for worker w, stealing when w's own
// span is exhausted. ok is false only when no cells remain anywhere.
func (q *queue) claim(w int) (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := &q.spans[w]
	if s.next >= s.end {
		// Steal the back half (at least one cell) of the richest span.
		best, bestRem := -1, 0
		for v := range q.spans {
			if rem := q.spans[v].end - q.spans[v].next; rem > bestRem {
				best, bestRem = v, rem
			}
		}
		if best < 0 {
			return 0, false
		}
		victim := &q.spans[best]
		mid := victim.next + (victim.end-victim.next)/2
		*s = span{next: mid, end: victim.end}
		victim.end = mid
	}
	i := s.next
	s.next++
	return i, true
}

// Run executes fn once per cell across a worker pool and returns the
// results indexed exactly like cells. workers follows the workerCount
// clamp: 0 means GOMAXPROCS, never more than len(cells). fn must
// derive everything from (ctx, cell): captured shared mutable state is
// a determinism bug (and a sharedcap lint finding). A panic inside fn lets the surviving workers finish the
// remaining cells, then re-raises on the caller's goroutine.
func Run[T any](workers int, cells []Cell, fn func(ctx *Context, i int, c Cell) T) []T {
	n := len(cells)
	if n == 0 {
		return nil
	}
	workers = workerCount(workers, n)
	out := make([]T, n)
	if workers == 1 {
		ctx := &Context{worker: 0, rt: node.NewRuntime()}
		for i, c := range cells {
			out[i] = fn(ctx, i, c)
			// Shrink pooled free lists to this cell's watermark, so one
			// big cell does not pin its footprint for the whole sweep.
			ctx.rt.Reset()
		}
		return out
	}
	q := newQueue(n, workers)
	// A worker that panics leaves its span to be stolen by the others,
	// so the remaining cells still run before spawn re-raises.
	spawn(workers, func(w int) {
		ctx := &Context{worker: w, rt: node.NewRuntime()}
		for {
			i, ok := q.claim(w)
			if !ok {
				return
			}
			out[i] = fn(ctx, i, cells[i])
			ctx.rt.Reset()
		}
	})
	return out
}

// workerCount clamps a requested worker count against n work items: 0
// (or negative) means GOMAXPROCS, and the result never exceeds n nor
// drops below 1.
func workerCount(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// spawn runs body(w) for every w in [0, workers) on its own goroutine
// and returns once all have exited. A panicking body does not stop the
// others: spawn waits for every goroutine, then re-raises the first
// panic on the caller's goroutine — an ordinary panic the caller can
// recover from, instead of the process dying on a worker stack.
func spawn(workers int, body func(w int)) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		failure any // first recovered worker panic, re-raised below
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if failure == nil {
						failure = r
					}
					mu.Unlock()
				}
			}()
			body(w)
		}(w)
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}
