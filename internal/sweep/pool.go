package sweep

import (
	"routeless/internal/node"
	"routeless/internal/workers"
)

// Pool is the sweep engine's worker pool: a workers.Pool plus one
// reusable Context per worker index. Run submits a flattened cell list
// to one and closes it; cmd/simserve keeps one open and submits runs as
// they arrive, under the same worker-private pooling discipline — and
// the sharedcap ownership rule that comes with it.
//
// Determinism note: the pool schedules, it never simulates. A job owns
// its run from build to finish on one worker goroutine, so which worker
// executes it (and in what order jobs drain) can change timing but
// never bytes.
type Pool struct {
	pool *workers.Pool
	// ctxs[w] is touched only by worker w: built on its first job, and
	// dropped while a job runs, so a job that panics leaves the worker a
	// fresh Context instead of half-used pools.
	ctxs []*Context
}

// NewPool returns a pool of n workers; n <= 0 sizes it from
// GOMAXPROCS.
func NewPool(n int) *Pool {
	p := workers.New(n)
	return &Pool{pool: p, ctxs: make([]*Context, p.Size())}
}

// Submit hands a job to the next free worker, blocking while all are
// busy. The job must thread ctx.Runtime() into node.Config (via
// scenario.BuildOptions) and nowhere else, and must not retain the
// Context past its return.
func (p *Pool) Submit(job func(*Context)) {
	p.pool.Go(func(w int) {
		ctx := p.ctxs[w]
		if ctx == nil {
			ctx = &Context{worker: w, rt: node.NewRuntime()}
		}
		p.ctxs[w] = nil
		job(ctx)
		// Shrink pooled free lists to this job's watermark, so one big
		// job does not pin its footprint for the pool's lifetime.
		ctx.rt.Reset()
		p.ctxs[w] = ctx
	})
}

// Close waits for every submitted job, stops the workers, and then
// re-raises the first job panic, if any, on the caller's goroutine.
func (p *Pool) Close() { p.pool.Close() }
