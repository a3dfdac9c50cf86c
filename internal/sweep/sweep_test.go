package sweep

import (
	"fmt"
	"runtime"
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

// Every cell must run exactly once even with uneven cell costs. Each
// counter is written only by the one job that owns its index (the race
// detector would flag a second one) and read after Run returns.
func TestRunEachCellOnce(t *testing.T) {
	const n = 500
	cells := Cells("f", n, []int64{0})
	var counts [n]int32
	Run(8, cells, func(ctx *Context, i int, c Cell) struct{} {
		// Make early cells expensive so the other workers drain the rest.
		if i < 8 {
			x := int64(1)
			for j := 0; j < 200000; j++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			_ = x
		}
		counts[i]++
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
// remaining cells finish, at any worker count: the pool recovers the
// panic, keeps serving cells, and re-raises once every cell returned.
func TestRunPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cells := Cells("f", 40, []int64{0})
		ran := make([]bool, len(cells))
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			Run(workers, cells, func(ctx *Context, i int, c Cell) int {
				if i == 13 {
					panic("cell boom")
				}
				ran[i] = true
				return i
			})
		}()
		if recovered == nil {
			t.Fatalf("workers=%d: cell panic was swallowed", workers)
		}
		if s, ok := recovered.(string); !ok || s != "cell boom" {
			t.Fatalf("workers=%d: re-raised %v, want \"cell boom\"", workers, recovered)
		}
		for i, r := range ran {
			if r != (i != 13) {
				t.Fatalf("workers=%d: cell %d ran=%v when the panic was re-raised", workers, i, r)
			}
		}
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

// The clamp rule of Run: 0 or negative means GOMAXPROCS, and no more
// workers start than the request or the cell count, so every worker
// index stays below both.
func TestWorkersClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name       string
		workers, n int
		bound      int // worker indices must lie in [0, bound)
	}{
		{name: "more workers than items", workers: 16, n: 3, bound: 3},
		{name: "equal", workers: 4, n: 4, bound: 4},
		{name: "fewer workers than items", workers: 2, n: 100, bound: 2},
		{name: "zero workers means GOMAXPROCS clamped to n", workers: 0, n: 2, bound: min(procs, 2)},
		{name: "negative workers means GOMAXPROCS clamped to n", workers: -3, n: 2, bound: min(procs, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Run(tc.workers, Cells("f", tc.n, []int64{0}), func(ctx *Context, i int, c Cell) int {
				return ctx.Worker()
			})
			for i, w := range got {
				if w < 0 || w >= tc.bound {
					t.Fatalf("Run(%d, %d cells): cell %d ran on worker %d, want [0, %d)", tc.workers, tc.n, i, w, tc.bound)
				}
			}
		})
	}
}
