package sweep

import (
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"

	"routeless/internal/rng"
)

func TestCellsEnumeration(t *testing.T) {
	seeds := []int64{10, 20, 30}
	cells := Cells("fig1", 2, seeds)
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	want := []Cell{
		{"fig1", 0, 0, 10}, {"fig1", 0, 1, 20}, {"fig1", 0, 2, 30},
		{"fig1", 1, 0, 10}, {"fig1", 1, 1, 20}, {"fig1", 1, 2, 30},
	}
	for i, c := range cells {
		if c != want[i] {
			t.Fatalf("cells[%d] = %+v, want %+v", i, c, want[i])
		}
	}
}

func TestCellsEmpty(t *testing.T) {
	if got := Cells("x", 0, []int64{1}); len(got) != 0 {
		t.Fatalf("0 points should yield 0 cells, got %d", len(got))
	}
	if got := Cells("x", 3, nil); len(got) != 0 {
		t.Fatalf("no seeds should yield 0 cells, got %d", len(got))
	}
}

func TestRunEmpty(t *testing.T) {
	out := Run(4, nil, func(ctx *Context, i int, c Cell) int { return i })
	if out != nil {
		t.Fatalf("empty cell list should return nil, got %v", out)
	}
}

// Results must land at the cell's index, in cell order, regardless of
// scheduling.
func TestRunOrderPreserved(t *testing.T) {
	cells := Cells("f", 10, []int64{1, 2, 3, 4, 5})
	for _, workers := range []int{1, 2, 3, 8, 64} {
		out := Run(workers, cells, func(ctx *Context, i int, c Cell) string {
			return fmt.Sprintf("%s/%d/%d/%d", c.Figure, c.Point, c.Rep, c.Seed)
		})
		if len(out) != len(cells) {
			t.Fatalf("workers=%d: %d results for %d cells", workers, len(out), len(cells))
		}
		for i, c := range cells {
			want := fmt.Sprintf("%s/%d/%d/%d", c.Figure, c.Point, c.Rep, c.Seed)
			if out[i] != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, out[i], want)
			}
		}
	}
}

// Every cell must run exactly once even under heavy stealing pressure
// (uneven cell costs force idle workers to raid busy spans).
func TestRunEachCellOnce(t *testing.T) {
	const n = 500
	cells := Cells("f", n, []int64{0})
	var counts [n]int32
	Run(8, cells, func(ctx *Context, i int, c Cell) struct{} {
		// Make early cells expensive so later spans get stolen.
		if i < 8 {
			x := int64(1)
			for j := 0; j < 200000; j++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			_ = x
		}
		atomic.AddInt32(&counts[i], 1)
		return struct{}{}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

// A cell function that derives everything from its seed must produce
// identical output for any worker count — the engine's core promise.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	cells := Cells("f", 7, []int64{3, 5, 9})
	cellFn := func(ctx *Context, i int, c Cell) uint64 {
		// Mix point and seed through the same derivation experiments use.
		return uint64(rng.Derive(c.Seed, uint64(c.Point)<<8|uint64(c.Rep)))
	}
	base := Run(1, cells, cellFn)
	for _, workers := range []int{2, 4, 8} {
		got := Run(workers, cells, cellFn)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d diverged from serial at cell %d", workers, i)
			}
		}
	}
}

// Each worker's Context must be stable for its whole loop: same worker
// index → same Runtime pointer, and distinct workers never share one.
func TestRunContextOwnership(t *testing.T) {
	const n = 200
	cells := Cells("f", n, []int64{0})
	type seen struct {
		worker int
		rt     string // runtime pointer identity via %p
	}
	results := Run(4, cells, func(ctx *Context, i int, c Cell) seen {
		if ctx.Runtime() == nil {
			t.Error("nil runtime")
		}
		return seen{ctx.Worker(), fmt.Sprintf("%p", ctx.Runtime())}
	})
	byWorker := map[int]string{}
	for _, r := range results {
		if prev, ok := byWorker[r.worker]; ok {
			if prev != r.rt {
				t.Fatalf("worker %d saw two runtimes: %s vs %s", r.worker, prev, r.rt)
			}
		} else {
			byWorker[r.worker] = r.rt
		}
	}
	byRuntime := map[string]int{}
	for w, rt := range byWorker {
		if other, dup := byRuntime[rt]; dup {
			t.Fatalf("workers %d and %d share a runtime", w, other)
		}
		byRuntime[rt] = w
	}
}

// A panicking cell must surface on the caller's goroutine after the
// remaining cells finish: the dead worker's span is stolen by the
// others, and spawn re-raises only once every worker has exited.
func TestRunPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cells := Cells("f", 40, []int64{0})
		var ran int32
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			Run(workers, cells, func(ctx *Context, i int, c Cell) int {
				if i == 13 {
					panic("cell boom")
				}
				atomic.AddInt32(&ran, 1)
				return i
			})
		}()
		if recovered == nil {
			t.Fatalf("workers=%d: cell panic was swallowed", workers)
		}
		if s, ok := recovered.(string); !ok || s != "cell boom" {
			t.Fatalf("workers=%d: re-raised %v, want \"cell boom\"", workers, recovered)
		}
		if workers > 1 && atomic.LoadInt32(&ran) != 39 {
			t.Fatalf("workers=%d: %d cells ran after panic, want 39", workers, ran)
		}
	}
}

// Directly exercise the steal path: a queue with all the work on one
// span must still hand every index out exactly once.
func TestQueueStealing(t *testing.T) {
	const n, workers = 37, 5
	q := newQueue(n, workers)
	// Exhaust workers 1..4's own spans into worker 0's tally first, to
	// force them onto the steal path. Simpler: drain everything from
	// worker 4 only — every claim after its own span empties must steal.
	seen := make([]int, n)
	for {
		i, ok := q.claim(4)
		if !ok {
			break
		}
		if i < 0 || i >= n {
			t.Fatalf("claimed out-of-range index %d", i)
		}
		seen[i]++
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d claimed %d times", i, c)
		}
	}
}

// rem=1 is the classic infinite-steal trap: stealing "half" of a
// single-cell span must hand over that cell, not loop forever.
func TestQueueStealSingleCell(t *testing.T) {
	q := newQueue(1, 2) // worker 0 owns [0,1), worker 1 owns nothing
	i, ok := q.claim(1)
	if !ok || i != 0 {
		t.Fatalf("claim(1) = (%d, %v), want (0, true)", i, ok)
	}
	if _, ok := q.claim(0); ok {
		t.Fatal("claim(0) succeeded after the only cell was stolen")
	}
	if _, ok := q.claim(1); ok {
		t.Fatal("claim(1) succeeded on an empty queue")
	}
}

// Property: for any (cells, workers) shape, parallel equals serial.
func TestQuickRunEqualsSerial(t *testing.T) {
	f := func(points, seedsN, workers uint8) bool {
		p := int(points % 9)
		s := int(seedsN % 5)
		w := int(workers%12) + 1
		seeds := make([]int64, s)
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}
		cells := Cells("q", p, seeds)
		fn := func(ctx *Context, i int, c Cell) int64 {
			return c.Seed*1000 + int64(c.Point)*10 + int64(c.Rep)
		}
		a := Run(1, cells, fn)
		b := Run(w, cells, fn)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The clamp rule shared by Run and NewPool: 0 or negative means
// GOMAXPROCS, never more than n, never below 1.
func TestWorkersClamp(t *testing.T) {
	cases := []struct {
		name        string
		workers, n  int
		want        int
		wantAtMost  int  // when >0, bound instead of exact (GOMAXPROCS cases)
		wantAtLeast int  // paired lower bound
		exact       bool // compare against want
	}{
		{name: "more workers than items", workers: 16, n: 3, want: 3, exact: true},
		{name: "equal", workers: 4, n: 4, want: 4, exact: true},
		{name: "fewer workers than items", workers: 2, n: 100, want: 2, exact: true},
		{name: "zero items still yields one worker", workers: 8, n: 0, want: 1, exact: true},
		{name: "negative items still yields one worker", workers: 8, n: -5, want: 1, exact: true},
		{name: "zero workers means GOMAXPROCS clamped to n", workers: 0, n: 2, wantAtMost: 2, wantAtLeast: 1},
		{name: "negative workers means GOMAXPROCS clamped to n", workers: -3, n: 2, wantAtMost: 2, wantAtLeast: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := workerCount(tc.workers, tc.n)
			if tc.exact {
				if got != tc.want {
					t.Fatalf("workerCount(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
				}
				return
			}
			if got < tc.wantAtLeast || got > tc.wantAtMost {
				t.Fatalf("workerCount(%d, %d) = %d, want in [%d, %d]", tc.workers, tc.n, got, tc.wantAtLeast, tc.wantAtMost)
			}
		})
	}
}

// spawn's panic contract, below Run: one body dies at once, the others
// still run to completion, and the first panic value is re-raised on
// the caller's goroutine only after they all exit.
func TestSpawnPanicLetsOthersFinish(t *testing.T) {
	const workers = 8
	var finished [workers]int32
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		spawn(workers, func(w int) {
			if w == 0 {
				panic("worker boom")
			}
			x := int64(1)
			for j := 0; j < 100000; j++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			_ = x
			atomic.StoreInt32(&finished[w], 1)
		})
	}()
	if s, ok := recovered.(string); !ok || s != "worker boom" {
		t.Fatalf("re-raised %v, want \"worker boom\"", recovered)
	}
	for w := 1; w < workers; w++ {
		if atomic.LoadInt32(&finished[w]) != 1 {
			t.Fatalf("worker %d had not finished when spawn re-raised", w)
		}
	}
}
