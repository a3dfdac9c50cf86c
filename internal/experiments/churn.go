package experiments

import (
	"fmt"

	"routeless/internal/metrics"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
)

// ChurnConfig is the fault-plane churn study: fixed bidirectional CBR
// pairs while a composite fault plan — duty-cycle crashes, per-link
// shadowing, and a roaming jammer, all scaled by one intensity knob —
// batters the network, comparing how Routeless Routing, AODV, and
// Gradient repair. It extends Figure 4's crash-only sweep to the full
// fault taxonomy and reads the recovery histograms as outputs.
type ChurnConfig struct {
	Nodes    int      // default 200
	Terrain  float64  // default 1265 (keeps Figure-4 density at 200 nodes)
	Range    float64  // default 250
	Interval float64  // CBR interval per direction, default 1 s
	Duration float64  // traffic seconds, default 30
	Seeds    []int64  // default {1,2,3}
	Workers  int      `json:"-"` // default GOMAXPROCS
	Tiles    int      `json:"-"` // PDES tiles per run; default 1 (sequential)
	Lambda   sim.Time // Routeless λ, default 10 ms
	DataSize int      // CBR payload bytes; default 64
	Pairs    int      // communicating pairs; default 5

	// Intensities is the x-axis: the crash OffFraction, with the link
	// degradation and jamming rates scaling linearly alongside it.
	// Intensity 0 runs with no fault plan at all (the clean baseline).
	Intensities []float64 // default {0, 0.05, 0.1, 0.2}

	// Journal, when non-nil, receives one Record per run in cell order.
	Journal *metrics.Journal `json:"-"`
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Nodes == 0 {
		c.Nodes = 200
	}
	if c.Terrain == 0 {
		c.Terrain = 1265
	}
	if c.Range == 0 {
		c.Range = 250
	}
	if c.Interval == 0 {
		c.Interval = 1
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
		c.DataSize = 64
	}
	if c.Pairs == 0 {
		c.Pairs = 5
	}
	if len(c.Intensities) == 0 {
		c.Intensities = []float64{0, 0.05, 0.1, 0.2}
	}
	return c
}

// numChurnProtos is the protocol count inside each intensity point.
const numChurnProtos = 3

// churnProto fixes the protocol order inside each intensity point.
func churnProto(i int) string {
	switch i {
	case 0:
		return scenario.ProtoRouteless
	case 1:
		return scenario.ProtoAODV
	default:
		return scenario.ProtoGradient
	}
}

// repairSeries maps a protocol to its repair-latency histogram name.
func repairSeries(proto string) string {
	switch proto {
	case scenario.ProtoRouteless:
		return "rr.repair_latency_s"
	case scenario.ProtoAODV:
		return "aodv.repair_latency_s"
	default:
		return "gradient.repair_latency_s"
	}
}

// churnFaults scales the three network-level fault shapes with one
// intensity knob: crash duty cycles at the intensity itself (Figure 4's
// axis, sparing the traffic endpoints), plus one link shadowed and one
// jam burst per 0.05/intensity seconds. Intensity 0 returns no faults —
// bitwise identical to a run without the fault plane.
func churnFaults(intensity float64, endpoints []int) []scenario.FaultSpec {
	if intensity <= 0 {
		return nil
	}
	period := 0.05 / intensity
	return append(crashFaults(intensity, false, endpoints),
		scenario.FaultSpec{Kind: "degrade", OffsetDB: -25, Period: period},
		scenario.FaultSpec{Kind: "jam", TxPowerDBm: 24.5, Period: period})
}

// rig is the Figure 3/4 rig at the churn study's field and traffic
// settings.
func (c ChurnConfig) rig() Fig34Config {
	return Fig34Config{
		Nodes: c.Nodes, Terrain: c.Terrain, Range: c.Range,
		Interval: c.Interval, Duration: c.Duration, Tiles: c.Tiles,
		Lambda: c.Lambda, DataSize: c.DataSize,
	}
}

// ChurnRow is one intensity point of the churn study.
type ChurnRow struct {
	Intensity float64

	RR, AODV, Gradient Agg

	// Per-protocol mean repair latency (seconds) and repair counts,
	// aggregated across seeds from the recovery histograms.
	RRRepairS, AODVRepairS, GradientRepairS stats.Welford
	RRRepairs, AODVRepairs, GradientRepairs stats.Welford
}

// RunChurn sweeps fault intensity × protocol across seeds.
func RunChurn(cfg ChurnConfig) []ChurnRow {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("churn", len(cfg.Intensities)*numChurnProtos, cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) runOut {
		ii, pi := c.Point/numChurnProtos, c.Point%numChurnProtos
		sc, endpoints := cfg.rig().doc(churnProto(pi), cfg.Pairs, c.Seed)
		sc.Faults = churnFaults(cfg.Intensities[ii], endpoints)
		// The repair-latency histograms are the study's output, so the
		// snapshot is captured whether or not the sweep journals.
		return runDoc(ctx, sc, true)
	})
	rows := make([]ChurnRow, len(cfg.Intensities))
	for i, x := range cfg.Intensities {
		rows[i].Intensity = x
	}
	for i, c := range cells {
		ii, pi := c.Point/numChurnProtos, c.Point%numChurnProtos
		row := &rows[ii]
		proto := churnProto(pi)
		rep, _ := results[i].snap.Get(repairSeries(proto))
		switch proto {
		case scenario.ProtoRouteless:
			row.RR.Add(results[i].RunMetrics)
			row.RRRepairS.Add(rep.Value)
			row.RRRepairs.Add(float64(rep.Count))
		case scenario.ProtoAODV:
			row.AODV.Add(results[i].RunMetrics)
			row.AODVRepairS.Add(rep.Value)
			row.AODVRepairs.Add(float64(rep.Count))
		case scenario.ProtoGradient:
			row.Gradient.Add(results[i].RunMetrics)
			row.GradientRepairS.Add(rep.Value)
			row.GradientRepairs.Add(float64(rep.Count))
		}
	}
	if cfg.Journal != nil {
		for i, c := range cells {
			ii, pi := c.Point/numChurnProtos, c.Point%numChurnProtos
			// A write failure sticks on the journal; callers check Err once.
			_ = cfg.Journal.Write(metrics.Record{
				Experiment: "churn",
				Label:      fmt.Sprintf("%s intensity=%g", churnProto(pi), cfg.Intensities[ii]),
				Seed:       c.Seed,
				Config:     cfg,
				Metrics:    results[i].snap,
			})
		}
	}
	return rows
}

// ChurnTable renders the churn study: delivery, repair latency, and
// delay per protocol against fault intensity.
func ChurnTable(rows []ChurnRow) *stats.Table {
	t := stats.NewTable(
		"Churn — RR vs AODV vs Gradient under composite faults (crash + link shadowing + jammer)",
		"intensity",
		"rr_delivery", "aodv_delivery", "grad_delivery",
		"rr_repair_s", "aodv_repair_s", "grad_repair_s",
		"rr_repairs", "aodv_repairs", "grad_repairs",
		"rr_delay_s", "aodv_delay_s", "grad_delay_s",
	)
	for _, r := range rows {
		t.AddRow(r.Intensity,
			r.RR.Delivery.Mean(), r.AODV.Delivery.Mean(), r.Gradient.Delivery.Mean(),
			r.RRRepairS.Mean(), r.AODVRepairS.Mean(), r.GradientRepairS.Mean(),
			r.RRRepairs.Mean(), r.AODVRepairs.Mean(), r.GradientRepairs.Mean(),
			r.RR.Delay.Mean(), r.AODV.Delay.Mean(), r.Gradient.Delay.Mean(),
		)
	}
	return t
}
