package experiments

import (
	"fmt"
	"math"
	"runtime"

	"routeless/internal/flood"
	"routeless/internal/geo"
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/rng"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
	"routeless/internal/traffic"
)

// MegaConfig is the million-node arena study: SSAF flooding on arenas
// grown at fixed Figure-1 density (100 nodes/km²), the x-axis the node
// count on a log scale. It is the scale proof for the O(active) data
// plane — auto-sized PDES tiling, bounded link caches, compact per-node
// RNG — and reports the two quantities the paper's mechanisms promise
// to keep flat as N grows: delivery ratio and the per-hop local
// election latency (mean end-to-end delay divided by mean hop count,
// i.e. how long each hop's SSAF election took).
type MegaConfig struct {
	Ns      []int   // x-axis node counts; default {1e3, 1e4, 1e5}
	Density float64 // nodes per km²; default 100 (Figure 1's density)
	Range   float64 // calibrated transmission range; default 250
	Flows   int     // source→destination pairs, ONE packet each; default 4
	// Duration is the traffic+crossing window in seconds; 0 derives it
	// per arena from the diagonal hop count so the last flood can cross
	// before the drain starts.
	Duration     float64
	Seeds        []int64  // replications; default {1}
	Workers      int      `json:"-"` // sweep parallelism; default GOMAXPROCS
	Tiles        int      `json:"-"` // PDES tiles per run; default node.AutoTiles
	TileWorkers  int      `json:"-"` // PDES worker bound; default GOMAXPROCS
	LinkCacheCap int      `json:"-"` // per-tile link-cache residency bound; default 4096
	Lambda       sim.Time // SSAF λ; default 10 ms
	DataSize     int      // flooded payload bytes; default 64

	// Journal, when non-nil, receives one Record per run plus nothing
	// else; bytes are deterministic for a fixed config at any worker,
	// tile, or link-cache setting.
	Journal *metrics.Journal `json:"-"`

	// MemProbe, when non-nil, receives each run's arena memory cost:
	// the post-GC heap bytes retained by building the network and
	// installing the protocol stack, before any traffic is scheduled.
	// That is the per-node state the SoA arena layout controls — link
	// caches, the event pool, and floating garbage show up in a
	// footprint measurement (simbench's peak heap), not here. The
	// probe runs two stop-the-world GCs per run; use Workers=1 so no
	// concurrent run's allocations leak into the window.
	MemProbe func(n int, retainedBytes uint64) `json:"-"`
}

func (c MegaConfig) withDefaults() MegaConfig {
	if len(c.Ns) == 0 {
		c.Ns = []int{1_000, 10_000, 100_000}
	}
	if c.Density == 0 {
		c.Density = 100
	}
	if c.Range == 0 {
		c.Range = 250
	}
	if c.Flows == 0 {
		c.Flows = 4
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1}
	}
	if c.Tiles == 0 {
		c.Tiles = node.AutoTiles
	}
	if c.LinkCacheCap == 0 {
		c.LinkCacheCap = 4096
	}
	if c.Lambda == 0 {
		c.Lambda = 10e-3
	}
	if c.DataSize == 0 {
		c.DataSize = 64
	}
	return c
}

// megaSide returns the square arena side in meters for n nodes at the
// configured density (nodes per km²).
func megaSide(n int, density float64) float64 {
	return math.Sqrt(float64(n) / density * 1e6)
}

// megaDuration picks the traffic window: every flow has started, and
// the last flood has had 2.5× the nominal diagonal crossing time (hops
// at the calibrated range, λ plus ~2 ms of airtime/backoff per hop) to
// reach the far corner.
func megaDuration(cfg MegaConfig, side float64) float64 {
	if cfg.Duration > 0 {
		return cfg.Duration
	}
	hops := side * math.Sqrt2 / cfg.Range
	return megaLastStart(cfg.Flows) + 3 + 2.5*hops*(float64(cfg.Lambda)+0.002)
}

// megaLastStart is when the final staggered flow fires its one packet.
func megaLastStart(flows int) float64 { return 0.5 + float64(flows-1) }

// MegaRow is one x-axis point: the aggregate paper-unit metrics plus
// the derived per-hop election latency (one sample per seed).
type MegaRow struct {
	N        int
	SSAF     Agg
	Election stats.Welford // Delay.Mean()/Hops.Mean() per run, seconds
}

// RunMega sweeps the node counts across seeds through the sweep engine.
// Every run uses compact per-node RNG streams (the study's point is the
// O(active) memory plane), so its draws are not comparable to fig1's —
// but are themselves deterministic and pinned by the journal golden.
func RunMega(cfg MegaConfig) []MegaRow {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("fig_mega", len(cfg.Ns), cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) runOut {
		return runMegaOnce(ctx, cfg, cfg.Ns[c.Point], c.Seed)
	})
	rows := make([]MegaRow, len(cfg.Ns))
	for i, n := range cfg.Ns {
		rows[i].N = n
	}
	for i, c := range cells {
		row := &rows[c.Point]
		m := results[i].RunMetrics
		row.SSAF.Add(m)
		if m.Hops > 0 {
			row.Election.Add(m.Delay / m.Hops)
		}
	}
	if cfg.Journal != nil {
		for i, c := range cells {
			_ = cfg.Journal.Write(metrics.Record{
				Experiment: "fig_mega",
				Label:      fmt.Sprintf("ssaf n=%d", cfg.Ns[c.Point]),
				Seed:       c.Seed,
				Config:     cfg,
				Metrics:    results[i].snap,
			})
		}
	}
	return rows
}

func runMegaOnce(ctx *sweep.Context, cfg MegaConfig, n int, seed int64) runOut {
	var baseline uint64
	if cfg.MemProbe != nil {
		baseline = retainedHeap()
	}
	side := megaSide(n, cfg.Density)
	nw := node.New(node.Config{
		N:     n,
		Rect:  geo.NewRect(side, side),
		Range: cfg.Range,
		Seed:  seed,
		// No EnsureConnected: the connectivity check is O(N·deg) per
		// placement draw, and at Figure-1 density a giant component
		// spans the arena anyway — stragglers just dent the delivery
		// ratio deterministically.
		Runtime:      ctx.Runtime(),
		Tiles:        cfg.Tiles,
		TileWorkers:  cfg.TileWorkers,
		LinkCacheCap: cfg.LinkCacheCap,
		CompactRNG:   true,
	})
	minDBm, maxDBm := scenario.SSAFSpan(cfg.Range)
	fcfg := flood.SSAFConfig(cfg.Lambda, minDBm, maxDBm)
	// The default TTL of 32 suits paper-scale arenas; a mega arena's
	// diagonal is hundreds of hops (SSAF's effective hop progress is
	// roughly half the calibrated range), so the brake scales with the
	// geometry instead of silently amputating the flood mid-arena.
	fcfg.TTL = int(4*side*math.Sqrt2/cfg.Range) + 16
	// Aggregate the flood.* series: per-node registration would cost six
	// registry entries per node and an O(N) snapshot; the aggregate is
	// bit-identical and O(1).
	floodArena := make([]flood.Flooding, n)
	floods := make([]*flood.Flooding, 0, n)
	nw.InstallAggregated(func(n *node.Node) node.Protocol {
		f := &floodArena[len(floods)]
		flood.Init(f, &fcfg)
		floods = append(floods, f)
		return f
	}, func(reg *metrics.Registry) { flood.RegisterAggregate(reg, floods) })
	if cfg.MemProbe != nil {
		cfg.MemProbe(n, retainedHeap()-baseline)
	}

	tap := scenario.NewAppTap(nw)
	dur := megaDuration(cfg, side)
	pairs := traffic.RandomPairs(rng.New(seed, rng.StreamTraffic), n, cfg.Flows)
	cbrs := make([]*traffic.CBR, len(pairs))
	for i, p := range pairs {
		// One packet per flow: the interval outlasts the whole run, and
		// the 1 s stagger keeps floods from colliding at birth.
		cbrs[i] = traffic.NewCBR(nw.Nodes[p.Src], p.Dst, sim.Time(dur)+3*drainTime, cfg.DataSize)
		tap.Watch(cbrs[i])
		cbrs[i].StartAt(sim.Time(0.5 + float64(i)))
	}
	nw.Run(sim.Time(dur))
	for _, c := range cbrs {
		c.Stop()
	}
	nw.Run(sim.Time(dur) + drainTime)
	countNetworkEvents(nw)
	rm := mustPass(scenario.CollectChecked(nw, tap))
	return runOut{rm, snapshotIf(nw, cfg.Journal != nil)}
}

// retainedHeap forces a collection and returns the live heap bytes —
// the MemProbe measurement primitive.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// MegaTable renders the study: delivery and election latency against N.
func MegaTable(rows []MegaRow) *stats.Table {
	t := stats.NewTable(
		"Figure M — million-node arena: SSAF flooding at Figure-1 density (100 nodes/km²)",
		"nodes", "delivery", "election_latency_s", "delay_s", "hops", "mac_packets",
	)
	for _, r := range rows {
		t.AddRow(r.N,
			r.SSAF.Delivery.Mean(), r.Election.Mean(),
			r.SSAF.Delay.Mean(), r.SSAF.Hops.Mean(), r.SSAF.MACPackets.Mean(),
		)
	}
	return t
}
