package experiments

import (
	"fmt"

	"routeless/internal/metrics"
	"routeless/internal/rng"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
	"routeless/internal/traffic"
)

// Fig1Config reproduces Figure 1: SSAF versus counter-1 flooding over
// the packet generation interval (§3). Paper scale: 100 nodes in
// 1000×1000 m, free space, 50 random connections.
type Fig1Config struct {
	Nodes       int       // default 100
	Terrain     float64   // square side, default 1000
	Range       float64   // default 250
	Connections int       // default 50
	Intervals   []float64 // x-axis, seconds; default 0.5..10
	Duration    float64   // traffic seconds per run; default 30
	Seeds       []int64   // replications; default {1,2,3}
	Workers     int       `json:"-"` // parallelism; default GOMAXPROCS
	Tiles       int       `json:"-"` // PDES tiles per run; default 1 (sequential)
	Lambda      sim.Time  // SSAF λ and counter-1 max backoff; default 10 ms
	DataSize    int       // flooded payload bytes; default 64

	// Journal, when non-nil, receives one Record per run — config, seed,
	// and the final metric snapshot — written after the sweep in job
	// order, so the journal bytes are deterministic for a fixed config.
	Journal *metrics.Journal `json:"-"`
}

func (c Fig1Config) withDefaults() Fig1Config {
	if c.Nodes == 0 {
		c.Nodes = 100
	}
	if c.Terrain == 0 {
		c.Terrain = 1000
	}
	if c.Range == 0 {
		c.Range = 250
	}
	if c.Connections == 0 {
		c.Connections = 50
	}
	if len(c.Intervals) == 0 {
		c.Intervals = []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	if c.Duration == 0 {
		c.Duration = 30
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if c.Lambda == 0 {
		c.Lambda = 10e-3
	}
	if c.DataSize == 0 {
		// Short sensor readings: keeps airtime (0.5 ms at 1 Mbps) well
		// below the backoff scale so prioritization, not transmission
		// serialization, decides relay order — and puts the saturation
		// knee in the paper's interval range.
		c.DataSize = 64
	}
	return c
}

// Fig1Row is one x-axis point of the three Figure 1 panels.
type Fig1Row struct {
	Interval float64
	Counter1 Agg
	SSAF     Agg
}

// fig1Point decodes the flattened x-axis: each interval contributes a
// counter-1 point (even) and an SSAF point (odd).
func fig1Point(cfg Fig1Config, point int) (interval float64, ssaf bool) {
	return cfg.Intervals[point/2], point%2 == 1
}

// RunFig1 sweeps the packet generation interval for both flooding
// variants across all seeds through the sweep engine.
func RunFig1(cfg Fig1Config) []Fig1Row {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("fig1", len(cfg.Intervals)*2, cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) runOut {
		interval, ssaf := fig1Point(cfg, c.Point)
		return runDoc(ctx, cfg.doc(interval, ssaf, c.Seed), cfg.Journal != nil)
	})
	rows := make([]Fig1Row, len(cfg.Intervals))
	for i, iv := range cfg.Intervals {
		rows[i].Interval = iv
	}
	for i, c := range cells {
		row := &rows[c.Point/2]
		if _, ssaf := fig1Point(cfg, c.Point); ssaf {
			row.SSAF.Add(results[i].RunMetrics)
		} else {
			row.Counter1.Add(results[i].RunMetrics)
		}
	}
	if cfg.Journal != nil {
		for i, c := range cells {
			interval, ssaf := fig1Point(cfg, c.Point)
			variant := "counter1"
			if ssaf {
				variant = "ssaf"
			}
			// A write failure sticks on the journal; callers check Err once.
			_ = cfg.Journal.Write(metrics.Record{
				Experiment: "fig1",
				Label:      fmt.Sprintf("%s interval=%g", variant, interval),
				Seed:       c.Seed,
				Config:     cfg,
				Metrics:    results[i].snap,
			})
		}
	}
	return rows
}

// doc renders one Figure 1 run as a scenario document: Connections
// random one-way flows, flooded by counter-1 or SSAF.
func (c Fig1Config) doc(interval float64, ssaf bool, seed int64) scenario.Scenario {
	sc := scenario.Scenario{
		Seed: seed, N: c.Nodes, Width: c.Terrain, Height: c.Terrain, Range: c.Range,
		Placement: scenario.PlaceUniform, Connected: true, Tiles: c.Tiles,
		Protocol: scenario.ProtoCounter1, Lambda: float64(c.Lambda),
		Interval: interval, DataSize: c.DataSize, Duration: c.Duration,
	}
	if ssaf {
		sc.Protocol = scenario.ProtoSSAF
	}
	for _, p := range traffic.RandomPairs(rng.New(seed, rng.StreamTraffic), c.Nodes, c.Connections) {
		sc.Flows = append(sc.Flows, scenario.Flow{Src: int(p.Src), Dst: int(p.Dst)})
	}
	return sc
}

// Fig1Table renders the three panels as one table.
func Fig1Table(rows []Fig1Row) *stats.Table {
	t := stats.NewTable(
		"Figure 1 — SSAF vs counter-1 flooding (free-space field, random connections)",
		"interval_s",
		"c1_delay_s", "ssaf_delay_s",
		"c1_hops", "ssaf_hops",
		"c1_delivery", "ssaf_delivery",
	)
	for _, r := range rows {
		t.AddRow(r.Interval,
			r.Counter1.Delay.Mean(), r.SSAF.Delay.Mean(),
			r.Counter1.Hops.Mean(), r.SSAF.Hops.Mean(),
			r.Counter1.Delivery.Mean(), r.SSAF.Delivery.Mean(),
		)
	}
	return t
}
