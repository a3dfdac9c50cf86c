package experiments

import (
	"fmt"
	"slices"

	"routeless/internal/metrics"
	"routeless/internal/rng"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
	"routeless/internal/traffic"
)

// Fig34Config covers both routing figures: Figure 3 sweeps the number
// of communicating pairs with no failures; Figure 4 fixes the pairs and
// sweeps the node-failure percentage. Paper scale: 500 nodes in
// 2000×2000 m, range ≈250 m, bidirectional CBR.
type Fig34Config struct {
	Nodes    int      // default 500
	Terrain  float64  // default 2000
	Range    float64  // default 250
	Interval float64  // CBR interval per direction, default 1 s
	Duration float64  // traffic seconds, default 60
	Seeds    []int64  // default {1,2,3}
	Workers  int      `json:"-"` // default GOMAXPROCS
	Tiles    int      `json:"-"` // PDES tiles per run; default 1 (sequential)
	Lambda   sim.Time // Routeless λ, default 10 ms
	DataSize int      // CBR payload bytes; default 64

	// Pairs is Figure 3's x-axis; default 1..10.
	Pairs []int
	// FailurePcts is Figure 4's x-axis (fractions); default 0..0.10.
	FailurePcts []float64
	// Fig4Pairs is the fixed pair count for Figure 4; default 10.
	Fig4Pairs int

	// Journal, when non-nil, receives one Record per run — config, seed,
	// and the final metric snapshot — written after each sweep in job
	// order, so the journal bytes are deterministic for a fixed config.
	Journal *metrics.Journal `json:"-"`
}

func (c Fig34Config) withDefaults() Fig34Config {
	if c.Nodes == 0 {
		c.Nodes = 500
	}
	if c.Terrain == 0 {
		c.Terrain = 2000
	}
	if c.Range == 0 {
		c.Range = 250
	}
	if c.Interval == 0 {
		c.Interval = 1
	}
	if c.Duration == 0 {
		c.Duration = 60
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if c.Lambda == 0 {
		c.Lambda = 10e-3
	}
	if c.DataSize == 0 {
		// Sensor-scale readings, matching the Figure 1 setup; see the
		// DataSize note there.
		c.DataSize = 64
	}
	if len(c.Pairs) == 0 {
		c.Pairs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	if len(c.FailurePcts) == 0 {
		c.FailurePcts = []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10}
	}
	if c.Fig4Pairs == 0 {
		c.Fig4Pairs = 10
	}
	return c
}

// doc renders one run of the §4.3 rig as a scenario document: `pairs`
// random connections, each carrying CBR in both directions ("the
// traffic being bidirectional", §4.3), routed by proto. It also returns
// the traffic endpoints, ascending: the nodes §4.3's failures spare
// ("all nodes but those that generate and receive CBR traffic").
func (c Fig34Config) doc(proto string, pairs int, seed int64) (sc scenario.Scenario, endpoints []int) {
	sc = scenario.Scenario{
		Seed: seed, N: c.Nodes, Width: c.Terrain, Height: c.Terrain, Range: c.Range,
		Placement: scenario.PlaceUniform, Connected: true, Tiles: c.Tiles,
		Protocol: proto, Lambda: float64(c.Lambda),
		Interval: c.Interval, DataSize: c.DataSize, Duration: c.Duration,
	}
	for _, p := range traffic.RandomPairs(rng.New(seed, rng.StreamTraffic), c.Nodes, pairs) {
		fwd := scenario.Flow{Src: int(p.Src), Dst: int(p.Dst)}
		sc.Flows = append(sc.Flows, fwd, scenario.Flow{Src: fwd.Dst, Dst: fwd.Src})
		endpoints = append(endpoints, fwd.Src, fwd.Dst)
	}
	slices.Sort(endpoints)
	return sc, slices.Compact(endpoints)
}

// crashFaults is §4.3's duty-cycle failure (or, with sleep, §4.2's
// voluntary sleep) on every node but the traffic endpoints. A zero off
// fraction means no fault plan at all.
func crashFaults(offFraction float64, sleep bool, endpoints []int) []scenario.FaultSpec {
	if offFraction <= 0 {
		return nil
	}
	return []scenario.FaultSpec{{Kind: "crash", OffFraction: offFraction, Sleep: sleep, Exclude: endpoints}}
}

// versusProto maps the two-protocol flattening of Figures 3 and 4 to
// the protocol under test: AODV on even points, Routeless on odd.
func versusProto(challenger bool) string {
	if challenger {
		return scenario.ProtoRouteless
	}
	return scenario.ProtoAODV
}

// Fig3Row is one x-axis point of the four Figure 3 panels.
type Fig3Row struct {
	Pairs     int
	AODV      Agg
	Routeless Agg
}

// versusPoint decodes the shared two-protocol x-axis flattening used by
// Figures 3 and 4 (and the ablations that reuse their rigs): even
// points are the baseline protocol, odd points the challenger.
func versusPoint(point int) (idx int, challenger bool) { return point / 2, point%2 == 1 }

// RunFig3 sweeps the number of communicating pairs with no failures.
func RunFig3(cfg Fig34Config) []Fig3Row {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("fig3", len(cfg.Pairs)*2, cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) runOut {
		pi, rr := versusPoint(c.Point)
		sc, _ := cfg.doc(versusProto(rr), cfg.Pairs[pi], c.Seed)
		return runDoc(ctx, sc, cfg.Journal != nil)
	})
	rows := make([]Fig3Row, len(cfg.Pairs))
	for i, p := range cfg.Pairs {
		rows[i].Pairs = p
	}
	for i, c := range cells {
		pi, rr := versusPoint(c.Point)
		if rr {
			rows[pi].Routeless.Add(results[i].RunMetrics)
		} else {
			rows[pi].AODV.Add(results[i].RunMetrics)
		}
	}
	if cfg.Journal != nil {
		for i, c := range cells {
			pi, rr := versusPoint(c.Point)
			// A write failure sticks on the journal; callers check Err once.
			_ = cfg.Journal.Write(metrics.Record{
				Experiment: "fig3",
				Label:      fmt.Sprintf("%s pairs=%d", versusProto(rr), cfg.Pairs[pi]),
				Seed:       c.Seed,
				Config:     cfg,
				Metrics:    results[i].snap,
			})
		}
	}
	return rows
}

// Fig3Table renders the four panels as one table.
func Fig3Table(rows []Fig3Row) *stats.Table {
	t := stats.NewTable(
		"Figure 3 — Routeless Routing vs AODV, no failures (bidirectional CBR)",
		"pairs",
		"aodv_delay_s", "rr_delay_s",
		"aodv_delivery", "rr_delivery",
		"aodv_mac_pkts", "rr_mac_pkts",
		"aodv_hops", "rr_hops",
	)
	for _, r := range rows {
		t.AddRow(r.Pairs,
			r.AODV.Delay.Mean(), r.Routeless.Delay.Mean(),
			r.AODV.Delivery.Mean(), r.Routeless.Delivery.Mean(),
			r.AODV.MACPackets.Mean(), r.Routeless.MACPackets.Mean(),
			r.AODV.Hops.Mean(), r.Routeless.Hops.Mean(),
		)
	}
	return t
}

// Fig4Row is one x-axis point of the four Figure 4 panels.
type Fig4Row struct {
	FailurePct float64
	AODV       Agg
	Routeless  Agg
}

// RunFig4 sweeps the node-failure percentage at a fixed pair count.
func RunFig4(cfg Fig34Config) []Fig4Row {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("fig4", len(cfg.FailurePcts)*2, cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) runOut {
		pi, rr := versusPoint(c.Point)
		sc, endpoints := cfg.doc(versusProto(rr), cfg.Fig4Pairs, c.Seed)
		sc.Faults = crashFaults(cfg.FailurePcts[pi], false, endpoints)
		return runDoc(ctx, sc, cfg.Journal != nil)
	})
	rows := make([]Fig4Row, len(cfg.FailurePcts))
	for i, pct := range cfg.FailurePcts {
		rows[i].FailurePct = pct
	}
	for i, c := range cells {
		pi, rr := versusPoint(c.Point)
		if rr {
			rows[pi].Routeless.Add(results[i].RunMetrics)
		} else {
			rows[pi].AODV.Add(results[i].RunMetrics)
		}
	}
	if cfg.Journal != nil {
		for i, c := range cells {
			pi, rr := versusPoint(c.Point)
			// A write failure sticks on the journal; callers check Err once.
			_ = cfg.Journal.Write(metrics.Record{
				Experiment: "fig4",
				Label:      fmt.Sprintf("%s failure=%g", versusProto(rr), cfg.FailurePcts[pi]),
				Seed:       c.Seed,
				Config:     cfg,
				Metrics:    results[i].snap,
			})
		}
	}
	return rows
}

// Fig4Table renders the four panels as one table.
func Fig4Table(rows []Fig4Row) *stats.Table {
	t := stats.NewTable(
		"Figure 4 — Routeless Routing vs AODV under duty-cycle node failures",
		"failure_pct",
		"aodv_delay_s", "rr_delay_s",
		"aodv_delivery", "rr_delivery",
		"aodv_mac_pkts", "rr_mac_pkts",
		"aodv_hops", "rr_hops",
	)
	for _, r := range rows {
		t.AddRow(r.FailurePct,
			r.AODV.Delay.Mean(), r.Routeless.Delay.Mean(),
			r.AODV.Delivery.Mean(), r.Routeless.Delivery.Mean(),
			r.AODV.MACPackets.Mean(), r.Routeless.MACPackets.Mean(),
			r.AODV.Hops.Mean(), r.Routeless.Hops.Mean(),
		)
	}
	return t
}
