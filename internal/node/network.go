package node

import (
	"fmt"

	"routeless/internal/geo"
	"routeless/internal/mac"
	"routeless/internal/metrics"
	"routeless/internal/packet"
	"routeless/internal/pdes"
	"routeless/internal/phy"
	"routeless/internal/propagation"
	"routeless/internal/rng"
	"routeless/internal/sim"
)

// Config describes a network to build. Zero-value fields take the
// defaults noted on each field.
type Config struct {
	// N is the node count (ignored when Positions is set).
	N int
	// Rect is the terrain; default 1000×1000 m.
	Rect geo.Rect
	// Positions places nodes explicitly; when nil, N nodes are placed
	// uniformly at random.
	Positions []geo.Point
	// Range is the calibrated transmission range in meters; default 250
	// (the paper's §4.3 value).
	Range float64
	// Model is the propagation model; default free space (§3).
	Model propagation.Model
	// Fader adds small-scale fading; default none.
	Fader propagation.Fader
	// FadeMarginDB widens the channel cutoff under fading; default 12.
	FadeMarginDB float64
	// MAC holds medium-access parameters; default mac.DefaultConfig.
	MAC *mac.Config
	// Seed drives every random stream in the network.
	Seed int64
	// EnsureConnected regenerates random placements (up to 100 draws)
	// until the unit-disk graph is connected, matching the paper's
	// implicit assumption that flooding reaches every node.
	EnsureConnected bool
	// Runtime, when non-nil, supplies externally owned reusable
	// allocation state (event free list, phy pools, range cache) — a
	// sweep worker's run context. Nil builds private state with
	// identical behavior; reuse changes allocation counts only, never
	// results.
	Runtime *Runtime
	// Tiles, when above 1, partitions the arena into that many geo
	// tiles, each with its own kernel advanced by a parallel PDES
	// worker between epoch barriers (see internal/pdes; the worker pool
	// is sized from GOMAXPROCS, and no field here bounds it). Results
	// are identical to the sequential network; requires no fading and
	// no mobility. 0 or 1 builds the classic sequential network. The
	// sentinel AutoTiles sizes the tiling from the arena instead: tile
	// sides at least twice the channel's interference cutoff (the
	// minimum sound lookahead geometry), as many tiles as fit.
	Tiles int
	// LinkCacheCap, when positive, bounds how many per-node link caches
	// each tile keeps live at once (FIFO eviction, bit-identical
	// rebuilds). Zero keeps every cache — fine up to ~100k nodes;
	// mega-scale runs set a cap to keep link memory O(active).
	LinkCacheCap int
	// RNG, when non-nil, routes every random-stream creation through
	// the tracker so draw counts become observable state (snapshot
	// fingerprints hash them). Tracked streams produce the identical
	// draw sequences — the tracker observes, never perturbs — so this
	// too changes no results.
	RNG *rng.Tracker
}

// AutoTiles is the Config.Tiles sentinel that sizes the PDES tiling
// automatically from the arena and the channel's interference cutoff.
const AutoTiles = -1

// Runtime is the reusable allocation state one sweep worker owns: the
// kernel event free list, the phy signal/delivery pools, and the
// cross-model range cache. A Runtime warms up on a worker's first run
// and makes every later run on that worker allocate less; it must
// never be shared between networks that run concurrently.
type Runtime struct {
	Events *sim.EventPool
	Phy    *phy.Pools
	Ranges *propagation.SharedRangeCache

	// Per-tile allocation state for tiled networks, grown on demand.
	// Tile kernels run concurrently, so each tile owns its pools; the
	// global kernel keeps using Events (it only runs at barriers, while
	// every tile worker is parked).
	tileEvents []*sim.EventPool
	tilePhy    []*phy.Pools
}

// NewRuntime returns a fresh runtime with empty pools.
func NewRuntime() *Runtime {
	return &Runtime{
		Events: sim.NewEventPool(),
		Phy:    phy.NewPools(),
		Ranges: propagation.NewSharedRangeCache(),
	}
}

// Reset shrinks the runtime's event free lists to the watermark of the
// run(s) since the previous Reset (see sim.EventPool.Reset). The sweep
// engine calls it between cells so a worker that just served the
// sweep's largest cell does not pin that cell's memory for every
// smaller cell that follows. Must not be called while any network
// built on this runtime is still running.
func (rt *Runtime) Reset() {
	rt.Events.Reset()
	for _, p := range rt.tileEvents {
		p.Reset()
	}
}

// tilePools returns per-tile event pools and phy pools for n tiles,
// growing the runtime's slots on first use so consecutive tiled runs on
// one sweep worker reuse warm memory.
func (rt *Runtime) tilePools(n int) ([]*sim.EventPool, []*phy.Pools) {
	for len(rt.tileEvents) < n {
		rt.tileEvents = append(rt.tileEvents, sim.NewEventPool())
		rt.tilePhy = append(rt.tilePhy, phy.NewPools())
	}
	return rt.tileEvents[:n], rt.tilePhy[:n]
}

// Network is a fully assembled simulation: kernel, channel, and nodes.
// Protocols and applications are attached after construction.
type Network struct {
	// Kernel is the simulation kernel on a sequential network, and the
	// global control-lane kernel on a tiled one (fault schedules and
	// other cross-cutting processes live there; its handlers run at
	// epoch barriers with every tile clock equal to the global clock).
	Kernel  *sim.Kernel
	Channel *phy.Channel
	Nodes   []*Node
	Rect    geo.Rect
	Seed    int64

	// RNG is the draw tracker every stream was created through, when
	// the network was built with Config.RNG (nil otherwise). The fault
	// plane and mobility route their stream creation through it too, so
	// a tracked network's entire randomness consumption is observable.
	RNG *rng.Tracker

	// TileKernels holds one kernel per PDES tile; nil when sequential.
	TileKernels []*sim.Kernel

	// minArm and crossDelay parameterize the conservative PDES window
	// (see internal/pdes): the MAC's minimum arming interval and, per
	// tile, the minimum propagation delay of any boundary-crossing link.
	minArm     sim.Time
	crossDelay []sim.Time

	// Metrics is the network-wide registry: channel counters, then every
	// radio and MAC in node-id order, then any protocol implementing
	// metrics.Source at Install time. Registration order is fixed, so
	// same-seed snapshots are bit-for-bit identical.
	Metrics *metrics.Registry
}

// New builds the network. It panics on nonsensical configuration —
// construction errors are programming errors in experiment setup.
// Callers holding a configuration of unknown provenance (the scenario
// fuzzer's generated topologies) use TryNew, which reports the same
// conditions as error values instead.
func New(cfg Config) *Network {
	nw, err := TryNew(cfg)
	if err != nil {
		panic(err.Error())
	}
	return nw
}

// TryNew builds the network, returning an error instead of panicking
// when the configuration cannot produce one: non-positive N without
// explicit positions, no connected placement within the attempt budget,
// or a tiled network combined with fading (the per-link fading stream
// is sequential). The random draws on the success path are identical to
// New's, so a configuration that constructs at all constructs
// bitwise-identically through either entry point.
func TryNew(cfg Config) (*Network, error) {
	if cfg.Rect == (geo.Rect{}) {
		cfg.Rect = geo.NewRect(1000, 1000)
	}
	if cfg.Range == 0 {
		cfg.Range = 250
	}
	if cfg.Model == nil {
		cfg.Model = propagation.NewFreeSpace()
	}
	if cfg.FadeMarginDB == 0 {
		cfg.FadeMarginDB = 12
	}
	macCfg := mac.DefaultConfig()
	if cfg.MAC != nil {
		macCfg = *cfg.MAC
	}

	rt := cfg.Runtime
	if rt == nil {
		rt = NewRuntime()
	}
	params := phy.DefaultParams(cfg.Model, cfg.Range)
	tiles := cfg.Tiles
	var tiling geo.Tiling
	haveTiling := false
	if tiles == AutoTiles {
		// Tile sides of at least twice the interference cutoff keep the
		// conservative-window geometry sound (a frame can only reach
		// adjacent tiles) while admitting as many tiles as the arena
		// supports; paper-scale arenas degenerate to one tile and run
		// sequentially.
		tiling = geo.AutoTiling(cfg.Rect, 2*phy.CutoffFor(cfg.Model, params, 0, cfg.Rect))
		tiles = tiling.Tiles()
		haveTiling = true
	}
	if tiles < 1 {
		tiles = 1
	}
	if tiles > 1 && cfg.Fader != nil {
		if _, noFade := cfg.Fader.(propagation.NoFade); !noFade {
			return nil, fmt.Errorf("node: tiled network requires NoFade (the fading stream is sequential), got fader %q with %d tiles",
				cfg.Fader.Name(), tiles)
		}
	}
	kernel := sim.NewKernelPooled(rng.Derive(cfg.Seed, 0xC0FFEE), rt.Events)

	positions := cfg.Positions
	if positions == nil {
		if cfg.N <= 0 {
			return nil, fmt.Errorf("node: Config.N must be positive without explicit positions, got %d", cfg.N)
		}
		placer := cfg.RNG.New(cfg.Seed, rng.StreamTopology)
		positions = geo.UniformPoints(placer, cfg.Rect, cfg.N)
		if cfg.EnsureConnected {
			for try := 0; try < 100; try++ {
				// The probe shares the runtime's range cache, so the
				// connectivity bisection for a parameter set is paid once
				// per worker, not once per placement attempt.
				probe := phy.NewChannel(kernel, cfg.Rect, positions, params,
					phy.ChannelConfig{Model: cfg.Model, Ranges: rt.Ranges})
				if probe.Connected() {
					break
				}
				if try == 99 {
					return nil, fmt.Errorf("node: no connected placement found for N=%d range=%.0f in %vx%v",
						cfg.N, cfg.Range, cfg.Rect.Width(), cfg.Rect.Height())
				}
				positions = geo.UniformPoints(placer, cfg.Rect, cfg.N)
			}
		}
	}

	chCfg := phy.ChannelConfig{
		Model:        cfg.Model,
		Fader:        cfg.Fader,
		FadeMarginDB: cfg.FadeMarginDB,
		Rng:          cfg.RNG.New(cfg.Seed, rng.StreamChannel),
		Pools:        rt.Phy,
		Ranges:       rt.Ranges,
		LinkCacheCap: cfg.LinkCacheCap,
	}
	var tileKernels []*sim.Kernel
	var tileOf []int32
	if tiles > 1 {
		// Tile assignment is pure arithmetic on the final positions, so
		// the same seed yields the same node→tile map at any tile count.
		if !haveTiling {
			tiling = geo.NewTiling(cfg.Rect, tiles)
		}
		tileOf = make([]int32, len(positions))
		for i, p := range positions {
			tileOf[i] = int32(tiling.TileOf(p))
		}
		evPools, phyPools := rt.tilePools(tiles)
		tileKernels = make([]*sim.Kernel, tiles)
		specs := make([]phy.TileSpec, tiles)
		for t := 0; t < tiles; t++ {
			k := sim.NewKernelPooled(rng.Derive(cfg.Seed, 0xC0FFEE, uint64(t+1)), evPools[t])
			k.EnableTagTracking()
			tileKernels[t] = k
			specs[t] = phy.TileSpec{Kernel: k, Pools: phyPools[t]}
		}
		chCfg.Tiles = specs
		chCfg.TileOf = tileOf
	}
	ch := phy.NewChannel(kernel, cfg.Rect, positions, params, chCfg)

	nw := &Network{Kernel: kernel, Channel: ch, Rect: cfg.Rect, Seed: cfg.Seed,
		RNG:         cfg.RNG,
		TileKernels: tileKernels,
		Metrics:     metrics.NewRegistry()}
	ch.RegisterMetrics(nw.Metrics)
	nw.Nodes = make([]*Node, len(positions))
	// One contiguous Node arena instead of N heap objects; Nodes keeps
	// its []*Node shape (protocols hold *Node), the pointers just all
	// land in one allocation.
	arena := make([]Node, len(positions))
	macArena := make([]mac.MAC, len(positions))
	macs := make([]*mac.MAC, len(positions))
	for i := range positions {
		nk := kernel
		tile := 0
		if tiles > 1 {
			tile = int(tileOf[i])
			nk = tileKernels[tile]
		}
		n := &arena[i]
		*n = Node{
			ID:     packet.NodeID(i),
			Pos:    positions[i],
			Kernel: nk,
			Ctl:    kernel,
			Tile:   tile,
			Radio:  ch.Radio(i),
			Rng:    cfg.RNG.ForNode(cfg.Seed, rng.StreamNet, i),
		}
		n.MAC = &macArena[i]
		mac.Init(n.MAC, nk, n.Radio, &macCfg, cfg.RNG.ForNode(cfg.Seed, rng.StreamMAC, i))
		n.MAC.SetHandler(macAdapter{n})
		macs[i] = n.MAC
		nw.Nodes[i] = n
	}
	// Aggregate phy.*/mac.* registration: one summing func-counter per
	// series instead of 25 registry entries per node.
	ch.RegisterRadioMetrics(nw.Metrics)
	mac.RegisterAggregate(nw.Metrics, macs)
	if tiles > 1 {
		// Conservative-window parameters: every transmission is armed at
		// least MinArm ahead (MAC timer discipline), and a signal leaving
		// tile t takes at least crossDelay[t] to reach another tile. Only
		// boundary transmitters — nodes with an in-cutoff neighbor on
		// another tile — tag their TX-risk timers; interior nodes cannot
		// affect other tiles inside a window.
		nw.minArm = macCfg.MinArm()
		nw.crossDelay = make([]sim.Time, tiles)
		for t := range nw.crossDelay {
			nw.crossDelay[t] = sim.Infinity
		}
		var buf []int
		for i := range positions {
			ti := int(tileOf[i])
			buf = ch.InterferenceNeighbors(buf, i)
			boundary := false
			for _, j := range buf {
				if int(tileOf[j]) == ti {
					continue
				}
				boundary = true
				d := sim.Time(propagation.Delay(positions[i].Dist(positions[j])))
				if d < nw.crossDelay[ti] {
					nw.crossDelay[ti] = d
				}
			}
			if boundary {
				nw.Nodes[i].MAC.TagTransmits()
			}
		}
	}
	nw.registerLaws()
	return nw, nil
}

// NumTiles returns how many PDES tiles the network runs on (1 when
// sequential).
func (nw *Network) NumTiles() int {
	if nw.TileKernels == nil {
		return 1
	}
	return len(nw.TileKernels)
}

// Processed sums the events executed across every kernel in the
// network.
func (nw *Network) Processed() uint64 {
	n := nw.Kernel.Processed()
	for _, k := range nw.TileKernels {
		n += k.Processed()
	}
	return n
}

// registerLaws declares the packet conservation invariants every run
// must satisfy at any instant. Each law equates two exact uint64 sums;
// the in-flight populations (pending leading edges, tracked signals,
// MAC backlogs) enter as func-counters so no cutoff ambiguity exists.
func (nw *Network) registerLaws() {
	// Every scheduled (radio, frame) delivery is eventually either
	// dropped at an off radio or enters in-air tracking.
	nw.Metrics.Law("phy-delivery",
		[]string{"chan.deliveries"},
		[]string{"phy.dropped_off", "phy.signal_starts", "chan.pending_starts"})
	// Every tracked signal leaves tracking exactly once: trailing edge,
	// or flushed when its receiver powered down, or still on the air.
	nw.Metrics.Law("phy-signal",
		[]string{"phy.signal_starts"},
		[]string{"phy.signal_ends", "phy.flushed_by_off", "phy.in_air"})
	// Every frame handed to a MAC is dropped at the full queue, fully
	// withdrawn, completed, failed, lost at pause, or still backlogged.
	nw.Metrics.Law("mac-queue",
		[]string{"mac.enqueued"},
		[]string{"mac.dropped_full", "mac.dequeued", "mac.completed",
			"mac.unicast_failed", "mac.dropped_paused", "mac.backlog"})
}

// CheckInvariants evaluates every registered conservation law and
// returns the violations, if any. Experiments call it after each run;
// tests may call it at any instant.
func (nw *Network) CheckInvariants() error { return nw.Metrics.Check() }

// Install attaches one protocol instance per node using the factory and
// starts them. Call exactly once, before running the kernel. Protocols
// implementing metrics.Source are registered with the network registry
// in node-id order.
func (nw *Network) Install(factory func(n *Node) Protocol) {
	for _, n := range nw.Nodes {
		n.Net = factory(n)
		if src, ok := n.Net.(metrics.Source); ok {
			src.RegisterMetrics(nw.Metrics)
		}
	}
	// Separate loop: protocols may talk to neighbors during Start.
	for _, n := range nw.Nodes {
		n.Net.Start(n)
	}
}

// InstallAggregated installs like Install but skips the per-node
// metrics.Source registration; register (if non-nil) then registers one
// aggregate source for the whole population — e.g. a closure over
// flood.RegisterAggregate. The registry sums same-name sources at
// snapshot time, so an aggregate that mirrors the per-node series names
// and order yields bit-identical snapshots while keeping the registry
// O(series) instead of O(N) — the difference between 6 and 6,000,000
// entries at mega scale.
func (nw *Network) InstallAggregated(factory func(n *Node) Protocol, register func(reg *metrics.Registry)) {
	for _, n := range nw.Nodes {
		n.Net = factory(n)
	}
	if register != nil {
		register(nw.Metrics)
	}
	for _, n := range nw.Nodes {
		n.Net.Start(n)
	}
}

// Run executes the simulation until time t: sequentially on the single
// kernel, or — when the network was built with Config.Tiles > 1 — as a
// conservative tiled PDES run whose results are identical to the
// sequential one.
func (nw *Network) Run(t sim.Time) {
	if nw.TileKernels == nil {
		nw.Kernel.RunUntil(t)
		return
	}
	pdes.Run(pdes.Config{
		Tiles:      nw.TileKernels,
		Global:     nw.Kernel,
		MinArm:     nw.minArm,
		CrossDelay: nw.crossDelay,
		Exchange:   nw.Channel.ExchangeCross,
	}, t)
}

// MoveNode relocates a node (mobility extension), keeping the channel's
// spatial index and the node's own position in sync.
func (nw *Network) MoveNode(id packet.NodeID, p geo.Point) {
	nw.Channel.MoveTo(int(id), p)
	nw.Nodes[id].Pos = p
}

// MACPackets sums every MAC-layer transmission in the network —
// Figures 3 and 4's "Number of MAC Packets".
func (nw *Network) MACPackets() uint64 {
	var sum uint64
	for _, n := range nw.Nodes {
		sum += n.MAC.Stats().TxFrames
	}
	return sum
}

// TotalEnergy sums every radio's consumption in joules at time now.
func (nw *Network) TotalEnergy() float64 {
	var sum float64
	for _, n := range nw.Nodes {
		sum += n.Radio.Energy().Total(nw.Kernel.Now())
	}
	return sum
}
