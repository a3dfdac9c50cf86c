// Package pdes runs a tiled network as a conservative parallel
// discrete-event simulation that is result-identical to the sequential
// kernel.
//
// The arena is partitioned into geo tiles (geo.Tiling), each with its
// own event kernel. A worker pool (internal/workers, GOMAXPROCS
// workers at most, never more than the tiles it is handed) advances
// kernels in lockstep windows between epoch barriers: the coordinator
// computes a barrier time B no tile can causally affect another tile
// before, submits only the *active* tiles — those with an event
// strictly before B — to the pool and waits for them, then — with all
// workers idle — drains the boundary-crossing deliveries the window
// produced (Config.Exchange) and runs the global control-lane kernel
// to B. Exchanged deliveries are applied in (source tile, transmit
// order), so the schedule each kernel sees is independent of how the
// workers interleaved, and a tiled run reproduces the sequential
// journal byte for byte at any tile count and any pool size.
//
// Idle tiles cost one PeekTime comparison per barrier, not a goroutine
// wakeup: their clocks advance lazily and are synchronized to the
// barrier only when the control lane is about to run events (global
// handlers call into radios, which timestamp energy transitions and arm
// relative timers off their tile kernel's clock — the control-lane
// contract is that every tile clock equals the global clock whenever a
// global handler runs). A tile that receives a cross-tile delivery
// becomes active by construction: the delivery lands strictly after B,
// so the next barrier scan sees it as pending work.
//
// The window bound is structural rather than geometric-only: every
// radio transmission happens inside an event armed at least MinArm in
// advance (the MAC's minimum timer interval — slot, SIFS, DIFS, or ack
// timeout), and boundary transmitters arm those events as *tagged*
// events (sim.Kernel.AtTagged). Tile i therefore cannot put a frame on
// the air before
//
//	base_i = min(PeekTagged_i, PeekTime_i + MinArm)
//
// and cannot affect another tile before base_i + CrossDelay[i], where
// CrossDelay[i] is the minimum propagation delay over tile i's
// boundary-crossing links. B is the minimum of those bounds, the global
// kernel's next event, and the run horizon.
package pdes

import (
	"fmt"

	"routeless/internal/sim"
	"routeless/internal/workers"
)

// Config wires one tiled run.
type Config struct {
	// Tiles holds the per-tile kernels, index-aligned with CrossDelay.
	Tiles []*sim.Kernel
	// Global is the control-lane kernel (fault schedules, observers).
	// It only runs at barriers, when every tile clock equals its own.
	Global *sim.Kernel
	// MinArm is the MAC's minimum arming interval: no transmission
	// starts less than MinArm after the event that committed to it was
	// scheduled.
	MinArm sim.Time
	// CrossDelay[i] lower-bounds the propagation delay of any signal
	// leaving tile i for another tile (sim.Infinity when tile i has no
	// boundary-crossing link).
	CrossDelay []sim.Time
	// Exchange drains the boundary-crossing deliveries queued during
	// the last window onto the receiving tiles' kernels, returning how
	// many it moved. Called only while every worker is idle.
	Exchange func() int
}

// Run advances the tiled simulation to time until. It opens its own
// worker pool for the duration of the call — a tiled run inside a
// sweep cell must not submit to the sweep's pool, whose workers may all
// be busy running cells — and joins it before returning; a panic on
// any worker is re-raised on the caller.
func Run(cfg Config, until sim.Time) {
	n := len(cfg.Tiles)
	if n == 0 || cfg.Global == nil || len(cfg.CrossDelay) != n || cfg.Exchange == nil {
		panic("pdes: incomplete config")
	}
	if until < cfg.Global.Now() {
		panic(fmt.Sprintf("pdes: Run(%v) before now %v", until, cfg.Global.Now()))
	}

	pool := workers.New(0)
	defer pool.Close()

	// cur is the active window's barrier. The coordinator writes it only
	// while every worker is idle; pool.Go orders that write before the
	// jobs' reads, and pool.Wait their return before the next write.
	var cur sim.Time
	advance := make([]func(int), n)
	for i, k := range cfg.Tiles {
		// A tile whose clock is already at or past the barrier (possible
		// only after a sequential fallback step) has nothing to do.
		advance[i] = func(int) {
			if cur > k.Now() {
				k.RunUntilBarrier(cur)
			}
		}
	}

	// runWindow submits every tile holding an event strictly before b —
	// the active worklist — to the pool and waits for all of them,
	// re-raising a worker panic. Tiles with nothing to run are not
	// woken; their clocks catch up in syncClocks when it matters.
	runWindow := func(b sim.Time) {
		cur = b
		for i, k := range cfg.Tiles {
			if k.PeekTime() < b {
				pool.Go(advance[i])
			}
		}
		wait(pool)
	}

	// syncClocks advances every lagging tile clock to b. Called before
	// the global kernel runs events (control-lane contract) and once at
	// the end of the run: lazily-idle tiles have no events before b, so
	// this is a pure clock assignment per tile.
	syncClocks := func(b sim.Time) {
		for _, k := range cfg.Tiles {
			if k.Now() < b {
				k.RunUntilBarrier(b)
			}
		}
	}

	g := cfg.Global.Now()
	for g < until {
		b := barrier(cfg, until)
		if b >= until {
			break
		}
		if b > g {
			runWindow(b)
			cfg.Exchange()
			if cfg.Global.PeekTime() <= b {
				syncClocks(b)
			}
			cfg.Global.RunUntil(b)
			g = b
			continue
		}
		// b == g: a tagged event (or a zero cross-delay link) sits
		// exactly at the barrier, so no parallel window opens. Close the
		// gap sequentially — workers are parked, so the coordinator owns
		// every kernel.
		if cfg.Global.PeekTime() <= g {
			syncClocks(g)
			cfg.Global.RunUntil(g)
			continue
		}
		stepMinTile(cfg.Tiles)
		cfg.Exchange()
	}

	// Every remaining bound is at or past the horizon: no tile can
	// affect another before until, so run each active tile straight
	// there, then drain exchanges and events landing exactly at the
	// horizon (RunUntil is inclusive, matching the sequential kernel).
	// Tile clocks are synchronized first so horizon-time control-lane
	// events observe them at the global clock, and once more at the end
	// so the run's postcondition — every clock at until — holds for
	// whoever samples state afterwards.
	runWindow(until)
	syncClocks(until)
	for iter := 0; ; iter++ {
		if iter > 1000 {
			panic("pdes: final drain did not quiesce")
		}
		moved := cfg.Exchange()
		cfg.Global.RunUntil(until)
		ran := false
		for _, k := range cfg.Tiles {
			if k.PeekTime() <= until {
				k.RunUntil(until)
				ran = true
			}
		}
		if moved == 0 && !ran && cfg.Global.PeekTime() > until {
			break
		}
	}
}

// barrier computes the next epoch barrier: the earliest time any tile
// could causally affect another, capped by the global kernel's next
// event and the run horizon.
func barrier(cfg Config, until sim.Time) sim.Time {
	b := until
	if p := cfg.Global.PeekTime(); p < b {
		b = p
	}
	for i, k := range cfg.Tiles {
		base := k.PeekTagged()
		if alt := k.PeekTime() + cfg.MinArm; alt < base {
			base = alt
		}
		if bound := base + cfg.CrossDelay[i]; bound < b {
			b = bound
		}
	}
	return b
}

// stepMinTile sequentially executes the single earliest pending tile
// event (lowest time, then lowest tile index) — the fallback that
// guarantees progress when the conservative window is empty.
func stepMinTile(tiles []*sim.Kernel) {
	best := -1
	at := sim.Infinity
	for i, k := range tiles {
		if p := k.PeekTime(); p < at {
			at, best = p, i
		}
	}
	if best < 0 {
		panic("pdes: stalled with no pending tile events")
	}
	tiles[best].Step()
}

// wait joins a window's tile jobs, re-raising a tile's panic with the
// engine named once every other tile of the window has returned.
func wait(pool *workers.Pool) {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Errorf("pdes: tile worker panic: %v", r))
		}
	}()
	pool.Wait()
}
