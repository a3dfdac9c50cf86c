// Package experiments reproduces every figure of the paper's
// evaluation plus the ablations listed in DESIGN.md. Each figure has a
// Config (defaults reproduce the paper's scale; tests and benches scale
// down), a Run function that sweeps the figure's x-axis across seeds in
// parallel, and a Table formatter that prints the series the paper
// plots.
package experiments

import (
	"encoding/json"
	"fmt"

	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
)

// Agg aggregates RunMetrics across seeds.
type Agg struct {
	Delay, Hops, Delivery, MACPackets, EnergyJ stats.Welford
}

// Add folds one run into the aggregate.
func (a *Agg) Add(m scenario.RunMetrics) {
	a.Delay.Add(m.Delay)
	a.Hops.Add(m.Hops)
	a.Delivery.Add(m.Delivery)
	a.MACPackets.Add(m.MACPackets)
	a.EnergyJ.Add(m.EnergyJ)
}

// mustPass returns a finished run's metrics, panicking on an oracle
// verdict: in a harness, a conservation-law violation is a simulator
// bug, not a measurement.
func mustPass(rm scenario.RunMetrics, err error) scenario.RunMetrics {
	if err != nil {
		panic(err)
	}
	return rm
}

// runOut is one run's result as it crosses the sweep boundary:
// the paper-unit metrics, plus the final registry snapshot when the
// sweep is journaling (nil otherwise — snapshots are not free).
type runOut struct {
	scenario.RunMetrics
	snap *metrics.Snapshot
}

// runDoc builds one harness document on the worker's runtime, finishes
// it under the oracle, and counts its events into the package
// throughput accumulator; snap captures the final metric snapshot. A
// harness document that fails to build is a harness bug, so it panics
// with the document named.
func runDoc(ctx *sweep.Context, sc scenario.Scenario, snap bool) runOut {
	run, err := scenario.BuildWith(sc, scenario.BuildOptions{Runtime: ctx.Runtime()})
	if err != nil {
		doc, _ := json.Marshal(sc)
		panic(fmt.Sprintf("experiments: harness document does not build: %v\n%s", err, doc))
	}
	rm := mustPass(run.Finish())
	countNetworkEvents(run.Network())
	return runOut{rm, snapshotIf(run.Network(), snap)}
}

// snapshotIf captures the network's final metric snapshot when want is
// set.
func snapshotIf(nw *node.Network, want bool) *metrics.Snapshot {
	if !want {
		return nil
	}
	return nw.Metrics.Snapshot()
}

// drainTime is how long runs continue after traffic stops so in-flight
// packets can land.
const drainTime sim.Time = 5
