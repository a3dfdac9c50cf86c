// Package workers is the simulator's one goroutine pool. The sweep
// engine runs its cells on it, the serving pool its jobs, and the PDES
// engine the active tiles of each barrier window; it holds the only
// `go` statement under internal/ (the goroutine lint rule exempts this
// package alone).
//
// A Pool schedules and never simulates: which worker runs a job can
// change timing but never bytes, because every caller derives a job's
// results from the job itself and stores them by job identity, not by
// completion order.
//
// Panic contract: a panicking job does not take the process down or
// stop the pool. The panic is recovered on the worker, the other jobs
// keep running, and Wait (or Close) re-raises the first panic on the
// caller's goroutine once every submitted job has returned.
package workers

import (
	"runtime"
	"sync"
)

// Pool runs jobs on at most Size worker goroutines. Workers start on
// demand — only when a job finds every started worker busy — so a pool
// never runs more goroutines than jobs it was handed.
//
// Go may be called from several goroutines; Wait and Close must not
// overlap a Go call. A job must not submit to its own pool: with every
// worker busy that submission blocks forever. Give a nested engine its
// own pool instead.
type Pool struct {
	size int
	jobs chan func(worker int)

	mu      sync.Mutex
	started int
	failure any // first recovered job panic since the last Wait

	pending sync.WaitGroup // submitted jobs that have not returned
	live    sync.WaitGroup // started workers
}

// New returns an idle pool of n workers; n <= 0 means GOMAXPROCS.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{size: n, jobs: make(chan func(int))}
}

// Size is the worker bound: every worker index lies in [0, Size).
func (p *Pool) Size() int { return p.size }

// Go hands job to an idle worker, starting one if none is idle and the
// bound allows, and otherwise blocks until a worker frees up. The job
// receives its worker's index.
func (p *Pool) Go(job func(worker int)) {
	p.pending.Add(1)
	select {
	case p.jobs <- job:
		return
	default:
	}
	p.mu.Lock()
	if p.started < p.size {
		p.live.Add(1)
		go p.worker(p.started)
		p.started++
	}
	p.mu.Unlock()
	p.jobs <- job
}

func (p *Pool) worker(w int) {
	defer p.live.Done()
	for job := range p.jobs {
		p.run(job, w)
	}
}

// run executes one job, keeping the first panic for Wait to re-raise.
func (p *Pool) run(job func(int), w int) {
	defer p.pending.Done()
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.failure == nil {
				p.failure = r
			}
			p.mu.Unlock()
		}
	}()
	job(w)
}

// Wait returns once every job submitted so far has returned, then
// re-raises the first panic any of them raised since the last Wait.
// The pool stays usable either way.
func (p *Pool) Wait() {
	p.pending.Wait()
	p.raise()
}

// Close waits like Wait, joins the workers, then re-raises the first
// pending panic. The pool takes no jobs afterwards.
func (p *Pool) Close() {
	p.pending.Wait()
	close(p.jobs)
	p.live.Wait()
	p.raise()
}

func (p *Pool) raise() {
	p.mu.Lock()
	r := p.failure
	p.failure = nil
	p.mu.Unlock()
	if r != nil {
		panic(r)
	}
}
