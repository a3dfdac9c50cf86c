package pdes

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"routeless/internal/sim"
)

// newTiles builds n tile kernels with tag tracking on (as the network
// constructor does) plus a control-lane kernel.
func newTiles(n int) ([]*sim.Kernel, *sim.Kernel) {
	tiles := make([]*sim.Kernel, n)
	for i := range tiles {
		tiles[i] = sim.NewKernel(int64(i + 1))
		tiles[i].EnableTagTracking()
	}
	return tiles, sim.NewKernel(99)
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := toString(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want it to contain %q", msg, want)
		}
	}()
	fn()
}

func toString(r any) string {
	switch v := r.(type) {
	case string:
		return v
	case error:
		return v.Error()
	default:
		return ""
	}
}

func TestRunIncompleteConfigPanics(t *testing.T) {
	tiles, global := newTiles(2)
	ok := Config{
		Tiles:      tiles,
		Global:     global,
		MinArm:     0.5,
		CrossDelay: []sim.Time{sim.Infinity, sim.Infinity},
		Exchange:   func() int { return 0 },
	}
	cases := []struct {
		name   string
		mutate func(Config) Config
	}{
		{"no tiles", func(c Config) Config { c.Tiles = nil; return c }},
		{"nil global", func(c Config) Config { c.Global = nil; return c }},
		{"crossdelay mismatch", func(c Config) Config { c.CrossDelay = c.CrossDelay[:1]; return c }},
		{"nil exchange", func(c Config) Config { c.Exchange = nil; return c }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustPanic(t, "pdes: incomplete config", func() { Run(tc.mutate(ok), 1.0) })
		})
	}
}

func TestRunBeforeNowPanics(t *testing.T) {
	tiles, global := newTiles(1)
	global.RunUntil(5.0)
	cfg := Config{
		Tiles:      tiles,
		Global:     global,
		MinArm:     0.5,
		CrossDelay: []sim.Time{sim.Infinity},
		Exchange:   func() int { return 0 },
	}
	mustPanic(t, "before now", func() { Run(cfg, 1.0) })
}

func TestRunDrainsAllKernelsToHorizon(t *testing.T) {
	tiles, global := newTiles(2)
	// Per-tile recording slices: each is written only by its own tile's
	// worker, read only after Run joins them.
	fired := make([][]sim.Time, 2)
	for i, k := range tiles {
		i := i
		k.Schedule(sim.Time(i)+1.0, func() { fired[i] = append(fired[i], sim.Time(i)+1.0) })
		k.Schedule(sim.Time(i)+4.0, func() { fired[i] = append(fired[i], sim.Time(i)+4.0) })
	}
	var globalFired []sim.Time
	global.Schedule(2.5, func() { globalFired = append(globalFired, 2.5) })

	Run(Config{
		Tiles:      tiles,
		Global:     global,
		MinArm:     0.5,
		CrossDelay: []sim.Time{sim.Infinity, sim.Infinity},
		Exchange:   func() int { return 0 },
	}, 10.0)

	for i := range fired {
		if len(fired[i]) != 2 {
			t.Errorf("tile %d ran %d events, want 2", i, len(fired[i]))
		}
		if now := tiles[i].Now(); now != 10.0 {
			t.Errorf("tile %d clock = %v, want horizon 10.0", i, now)
		}
	}
	if len(globalFired) != 1 {
		t.Errorf("global ran %d events, want 1", len(globalFired))
	}
	if now := global.Now(); now != 10.0 {
		t.Errorf("global clock = %v, want horizon 10.0", now)
	}
}

func TestExchangeDeliversAcrossTiles(t *testing.T) {
	tiles, global := newTiles(2)
	const delay = 1.0

	// Tile 0 "transmits" at t=1 via a tagged event that queues a
	// boundary crossing; Exchange moves it onto tile 1's kernel at
	// t=1+delay, exactly the shape the network's outboxes use.
	type crossing struct {
		to int
		at sim.Time
	}
	var outbox []crossing
	tiles[0].ScheduleTagged(1.0, func() {
		outbox = append(outbox, crossing{to: 1, at: tiles[0].Now() + delay})
	})
	var delivered []sim.Time
	exchange := func() int {
		n := len(outbox)
		for _, c := range outbox {
			c := c
			tiles[c.to].Schedule(c.at, func() { delivered = append(delivered, c.at) })
		}
		outbox = outbox[:0]
		return n
	}

	Run(Config{
		Tiles:      tiles,
		Global:     global,
		MinArm:     0.5,
		CrossDelay: []sim.Time{delay, delay},
		Exchange:   exchange,
	}, 10.0)

	if len(delivered) != 1 || delivered[0] != 1.0+delay {
		t.Fatalf("delivered = %v, want [%v]", delivered, 1.0+delay)
	}
}

// TestWorkersKnobIsResultInvariant runs the same many-tile workload
// (most tiles idle — the active-worklist path) under several pool
// sizes, including a pool far smaller than the tile count, and demands
// identical firing orders and final clocks. The pool is sized from
// GOMAXPROCS, so that is the knob varied here.
func TestWorkersKnobIsResultInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const tilesN = 16
	run := func(workers int) ([][]int, []sim.Time) {
		runtime.GOMAXPROCS(workers)
		tiles, global := newTiles(tilesN)
		// Per-tile firing records: written only by the owning tile's
		// worker, read after Run joins the pool. Only tiles 3 and 11 are
		// ever active; the rest must still end at the horizon via lazy
		// clock sync.
		order := make([][]int, tilesN)
		for _, i := range []int{3, 11} {
			i := i
			for step := 0; step < 4; step++ {
				step := step
				tiles[i].Schedule(sim.Time(step)+0.25, func() {
					order[i] = append(order[i], step)
				})
			}
		}
		global.Schedule(1.5, func() {
			// Control-lane contract: every tile clock equals the global
			// clock whenever a global handler runs.
			for i, k := range tiles {
				if k.Now() != global.Now() {
					t.Errorf("workers=%d: tile %d clock %v at global handler time %v",
						workers, i, k.Now(), global.Now())
				}
			}
		})
		cd := make([]sim.Time, tilesN)
		for i := range cd {
			cd[i] = 0.5
		}
		Run(Config{
			Tiles:      tiles,
			Global:     global,
			MinArm:     0.25,
			CrossDelay: cd,
			Exchange:   func() int { return 0 },
		}, 10.0)
		clocks := make([]sim.Time, tilesN)
		for i, k := range tiles {
			clocks[i] = k.Now()
		}
		return order, clocks
	}

	wantOrder, wantClocks := run(1)
	for _, c := range wantClocks {
		if c != 10.0 {
			t.Fatalf("clocks after run = %v, want all at horizon", wantClocks)
		}
	}
	if len(wantOrder[3]) != 4 || len(wantOrder[11]) != 4 {
		t.Fatalf("active tiles fired %d/%d events, want 4/4", len(wantOrder[3]), len(wantOrder[11]))
	}
	for _, w := range []int{2, 3, 16, 64} {
		order, clocks := run(w)
		for i := range order {
			if !slices.Equal(order[i], wantOrder[i]) {
				t.Errorf("workers=%d: tile %d fired %v, want %v", w, i, order[i], wantOrder[i])
			}
		}
		if !slices.Equal(clocks, wantClocks) {
			t.Errorf("workers=%d: clocks %v, want %v", w, clocks, wantClocks)
		}
	}
}

func TestWorkerPanicPropagates(t *testing.T) {
	tiles, global := newTiles(2)
	tiles[0].Schedule(1.0, func() { panic("boom") })
	cfg := Config{
		Tiles:      tiles,
		Global:     global,
		MinArm:     0.5,
		CrossDelay: []sim.Time{sim.Infinity, sim.Infinity},
		Exchange:   func() int { return 0 },
	}
	mustPanic(t, "pdes: tile worker panic", func() { Run(cfg, 10.0) })
}
