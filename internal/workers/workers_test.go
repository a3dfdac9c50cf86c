package workers

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every job runs exactly once, on a worker whose index is in [0, n),
// under contention from several submitting goroutines.
func TestEveryJobRunsOnce(t *testing.T) {
	const jobs = 2000
	for _, n := range []int{1, 3, 16} {
		p := New(n)
		var counts [jobs]int32
		var badIndex atomic.Int32
		done := make(chan struct{})
		for g := 0; g < 4; g++ {
			go func(g int) {
				for i := g; i < jobs; i += 4 {
					p.Go(func(w int) {
						if w < 0 || w >= n {
							badIndex.Store(int32(w) + 1)
						}
						atomic.AddInt32(&counts[i], 1)
					})
				}
				done <- struct{}{}
			}(g)
		}
		for g := 0; g < 4; g++ {
			<-done
		}
		p.Close()
		if w := badIndex.Load(); w != 0 {
			t.Fatalf("n=%d: job ran on worker %d", n, w-1)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: job %d ran %d times", n, i, c)
			}
		}
	}
}

// n <= 0 sizes the pool from GOMAXPROCS; a positive n is taken as is.
func TestSize(t *testing.T) {
	for _, n := range []int{0, -3} {
		if got, want := New(n).Size(), runtime.GOMAXPROCS(0); got != want {
			t.Fatalf("New(%d).Size() = %d, want GOMAXPROCS %d", n, got, want)
		}
	}
	if got := New(5).Size(); got != 5 {
		t.Fatalf("New(5).Size() = %d, want 5", got)
	}
}

// Workers start on demand: a pool bounded far above its job count
// never starts more workers than jobs, so every index stays below it.
func TestWorkersStartOnDemand(t *testing.T) {
	const jobs = 5
	p := New(64)
	var seen [jobs]int
	for i := 0; i < jobs; i++ {
		p.Go(func(w int) { seen[i] = w })
	}
	p.Close()
	for i, w := range seen {
		if w >= jobs {
			t.Fatalf("job %d ran on worker %d; %d jobs need at most %d workers", i, w, jobs, jobs)
		}
	}
}

// Wait re-raises the first panic, and only after every other submitted
// job has returned: the survivors block on a gate that opens after the
// panic, so a Wait that re-raised early would find them unfinished.
func TestWaitRaisesAfterOthersFinish(t *testing.T) {
	const others = 7
	p := New(others + 1)
	defer p.Close()
	gate := make(chan struct{})
	var finished atomic.Int32
	for i := 0; i < others; i++ {
		p.Go(func(int) {
			<-gate
			finished.Add(1)
		})
	}
	p.Go(func(int) {
		defer close(gate)
		panic("job boom")
	})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.Wait()
	}()
	if s, ok := recovered.(string); !ok || s != "job boom" {
		t.Fatalf("Wait re-raised %v, want \"job boom\"", recovered)
	}
	if got := finished.Load(); got != others {
		t.Fatalf("%d of %d other jobs had finished when Wait re-raised", got, others)
	}
}

// Only the first panic is re-raised, once: a second Wait with no new
// failure returns normally.
func TestWaitRaisesFirstPanicOnce(t *testing.T) {
	p := New(1) // one worker: jobs run in submission order
	defer p.Close()
	p.Go(func(int) { panic("first") })
	p.Go(func(int) { panic("second") })
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.Wait()
	}()
	if recovered != "first" {
		t.Fatalf("Wait re-raised %v, want \"first\"", recovered)
	}
	p.Wait() // must not panic again
}

// The pool keeps serving jobs after a panicking one, on the same
// worker, and Close re-raises a panic no Wait has reported yet.
func TestPoolServesAfterPanic(t *testing.T) {
	p := New(1)
	p.Go(func(int) { panic("boom") })
	func() {
		defer func() { _ = recover() }()
		p.Wait()
	}()
	ran := 0
	for i := 0; i < 5; i++ {
		p.Go(func(int) { ran++ })
	}
	p.Wait()
	if ran != 5 {
		t.Fatalf("%d of 5 jobs ran after a panic", ran)
	}
	p.Go(func(int) { panic("late") })
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.Close()
	}()
	if recovered != "late" {
		t.Fatalf("Close re-raised %v, want \"late\"", recovered)
	}
}
