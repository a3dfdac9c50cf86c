package experiments

import (
	"fmt"
	"math"
	"strings"

	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/routing"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
	"routeless/internal/trace"
	"routeless/internal/traffic"
)

// Fig2Config reproduces Figure 2: automatic congestion avoidance. Two
// scenarios over the same topology: (a) a single A→B flow; (b) the same
// flow plus heavy C→D cross-traffic through the middle. The figure is
// the set of nodes that actually relayed A's data packets.
type Fig2Config struct {
	Nodes         int      // default 300
	Terrain       float64  // default 1500
	Range         float64  // default 250
	Seed          int64    // topology + protocol seed
	Duration      float64  // traffic seconds, default 40
	Interval      float64  // A→B CBR interval, default 1 s
	CrossInterval float64  // C→D CBR interval, default 0.05 s (saturating)
	CrossSize     int      // C→D payload bytes, default 512 (long airtime)
	Lambda        sim.Time // Routeless λ, default 10 ms
	Workers       int      `json:"-"` // parallelism across the two scenarios; default GOMAXPROCS
}

func (c Fig2Config) withDefaults() Fig2Config {
	if c.Nodes == 0 {
		c.Nodes = 300
	}
	if c.Terrain == 0 {
		c.Terrain = 1500
	}
	if c.Range == 0 {
		c.Range = 250
	}
	if c.Duration == 0 {
		c.Duration = 40
	}
	if c.Interval == 0 {
		c.Interval = 1
	}
	if c.CrossInterval == 0 {
		// Loads the middle corridor heavily: ~25 packets/s of 512-byte
		// frames over ~6 hops builds the MAC queues that §4.2's
		// avoidance argument depends on, without starving the medium
		// completely.
		c.CrossInterval = 0.08
	}
	if c.CrossSize == 0 {
		c.CrossSize = 512
	}
	if c.Lambda == 0 {
		c.Lambda = 10e-3
	}
	return c
}

// Fig2Result holds both scenarios' relay traces over the shared
// topology.
type Fig2Result struct {
	Config     Fig2Config
	Positions  []geo.Point
	A, B, C, D packet.NodeID
	Alone      *trace.PathCollector // scenario (a)
	WithCross  *trace.PathCollector // scenario (b)

	// CenterShareAlone/WithCross: fraction of A's data relays that
	// happened within Terrain/4 of the terrain center — the congested
	// region. Avoidance means the share drops in scenario (b).
	CenterShareAlone     float64
	CenterShareWithCross float64
	// MeanCenterDistAlone/WithCross: mean distance of A's relays from
	// the center (meters); avoidance means it grows.
	MeanCenterDistAlone     float64
	MeanCenterDistWithCross float64
	// Delivered counts A→B packets that arrived in each scenario.
	DeliveredAlone     uint64
	DeliveredWithCross uint64
}

// RunFig2 runs both scenarios — two sweep cells over the same seed, so
// they execute concurrently when workers allow.
func RunFig2(cfg Fig2Config) Fig2Result {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("fig2", 2, []int64{cfg.Seed})
	outs := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) fig2Out {
		return runFig2Scenario(ctx, cfg, c.Point == 1)
	})
	alone, cross := outs[0], outs[1]
	if alone.a != cross.a || alone.b != cross.b {
		panic("experiments: fig2 scenarios diverged on endpoints")
	}
	for i := range alone.positions {
		if alone.positions[i] != cross.positions[i] {
			panic("experiments: fig2 scenarios diverged on topology")
		}
	}
	res := Fig2Result{
		Config: cfg, Positions: cross.positions,
		A: alone.a, B: alone.b, C: cross.c, D: cross.d,
		Alone: alone.paths, WithCross: cross.paths,
		DeliveredAlone: alone.delivered, DeliveredWithCross: cross.delivered,
	}
	center := geo.Point{X: cfg.Terrain / 2, Y: cfg.Terrain / 2}
	res.CenterShareAlone, res.MeanCenterDistAlone = centerUsage(alone.paths, alone.a, cross.positions, center, cfg.Terrain/4)
	res.CenterShareWithCross, res.MeanCenterDistWithCross = centerUsage(cross.paths, alone.a, cross.positions, center, cfg.Terrain/4)
	return res
}

// centerUsage computes what share of origin's data relays happened
// inside the central disk and their mean distance from the center.
func centerUsage(c *trace.PathCollector, origin packet.NodeID, pos []geo.Point, center geo.Point, radius float64) (share, meanDist float64) {
	used := c.NodesUsed(origin, packet.KindData)
	var total, inside int
	var distSum float64
	for id, n := range used {
		if id == origin {
			continue // the source itself is pinned in place
		}
		total += n
		d := pos[id].Dist(center)
		distSum += d * float64(n)
		if d <= radius {
			inside += n
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(inside) / float64(total), distSum / float64(total)
}

// fig2Out is one scenario's outcome as it crosses the sweep boundary.
type fig2Out struct {
	paths      *trace.PathCollector
	positions  []geo.Point
	a, b, c, d packet.NodeID
	delivered  uint64
}

func runFig2Scenario(ctx *sweep.Context, cfg Fig2Config, withCross bool) fig2Out {
	nw := node.New(node.Config{
		N:               cfg.Nodes,
		Rect:            geo.NewRect(cfg.Terrain, cfg.Terrain),
		Range:           cfg.Range,
		Seed:            cfg.Seed,
		EnsureConnected: true,
		Runtime:         ctx.Runtime(),
	})
	collector := trace.NewPathCollector()
	// A generous path budget lets packets swing wide around the
	// congested middle — the behavior this figure demonstrates.
	rcfg := routing.RoutelessConfig{Lambda: cfg.Lambda, PathMargin: 5}
	nw.Install(func(n *node.Node) node.Protocol {
		r := routing.NewRouteless(rcfg)
		id := n.ID
		r.OnRelay = func(pkt *packet.Packet) { collector.Record(id, pkt, n.Kernel.Now()) }
		return r
	})

	positions := make([]geo.Point, len(nw.Nodes))
	for i, n := range nw.Nodes {
		positions[i] = n.Pos
	}
	t := cfg.Terrain
	a := nearestNode(nw, geo.Point{X: 0.08 * t, Y: 0.5 * t})
	b := nearestNode(nw, geo.Point{X: 0.92 * t, Y: 0.5 * t})
	c := nearestNode(nw, geo.Point{X: 0.5 * t, Y: 0.08 * t})
	d := nearestNode(nw, geo.Point{X: 0.5 * t, Y: 0.92 * t})

	var delivered uint64
	nw.Nodes[b].OnAppReceive = func(p *packet.Packet) {
		if p.Origin == packet.NodeID(a) {
			delivered++
		}
	}

	ab := traffic.NewCBR(nw.Nodes[a], packet.NodeID(b), sim.Time(cfg.Interval), packet.SizeData)
	ab.StartAt(sim.Time(cfg.Interval))
	cbrs := []*traffic.CBR{ab}
	if withCross {
		// Bidirectional heavy cross traffic saturates the middle.
		cd := traffic.NewCBR(nw.Nodes[c], packet.NodeID(d), sim.Time(cfg.CrossInterval), cfg.CrossSize)
		dc := traffic.NewCBR(nw.Nodes[d], packet.NodeID(c), sim.Time(cfg.CrossInterval), cfg.CrossSize)
		cd.StartAt(sim.Time(cfg.CrossInterval) / 2)
		dc.StartAt(sim.Time(cfg.CrossInterval) / 3)
		cbrs = append(cbrs, cd, dc)
	}
	nw.Run(sim.Time(cfg.Duration))
	for _, cb := range cbrs {
		cb.Stop()
	}
	nw.Run(sim.Time(cfg.Duration) + drainTime)
	countEvents(nw.Kernel)
	return fig2Out{
		paths: collector, positions: positions,
		a: packet.NodeID(a), b: packet.NodeID(b),
		c: packet.NodeID(c), d: packet.NodeID(d),
		delivered: delivered,
	}
}

func nearestNode(nw *node.Network, p geo.Point) int {
	best, bestD := -1, math.MaxFloat64
	for i, n := range nw.Nodes {
		if d := n.Pos.Dist(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Fig2Render draws both scenarios as ASCII maps: '.' nodes, 'o' nodes
// relaying A→B data, 'x' nodes relaying C→D data, letters for
// endpoints.
func Fig2Render(res Fig2Result, width int) string {
	rect := geo.NewRect(res.Config.Terrain, res.Config.Terrain)
	var b strings.Builder
	draw := func(title string, c *trace.PathCollector, withCross bool) {
		cv := trace.NewCanvas(rect, width)
		cv.PlotAll(res.Positions, '.')
		if withCross {
			for id := range c.NodesUsed(res.C, packet.KindData) {
				cv.Plot(res.Positions[id], 'x')
			}
			for id := range c.NodesUsed(res.D, packet.KindData) {
				cv.Plot(res.Positions[id], 'x')
			}
		}
		for id := range c.NodesUsed(res.A, packet.KindData) {
			cv.Plot(res.Positions[id], 'o')
		}
		cv.Plot(res.Positions[res.A], 'A')
		cv.Plot(res.Positions[res.B], 'B')
		if withCross {
			cv.Plot(res.Positions[res.C], 'C')
			cv.Plot(res.Positions[res.D], 'D')
		}
		b.WriteString(title + "\n")
		b.WriteString(cv.String())
	}
	draw("(a) single flow A->B", res.Alone, false)
	b.WriteByte('\n')
	draw("(b) A->B with heavy C<->D cross-traffic", res.WithCross, true)
	fmt.Fprintf(&b, "\nA->B relays within center disk: %.0f%% alone vs %.0f%% with cross-traffic\n",
		100*res.CenterShareAlone, 100*res.CenterShareWithCross)
	fmt.Fprintf(&b, "mean relay distance from center: %.0f m alone vs %.0f m with cross-traffic\n",
		res.MeanCenterDistAlone, res.MeanCenterDistWithCross)
	return b.String()
}

// Fig2Table summarizes the avoidance metrics: one row pair per result
// (one per seed), plus the seed mean when there are several.
func Fig2Table(results ...Fig2Result) *stats.Table {
	t := stats.NewTable(
		"Figure 2 — automatic congestion avoidance (Routeless Routing)",
		"seed", "scenario", "center_share", "mean_center_dist_m", "ab_delivered",
	)
	var share, dist, delivered [2]float64
	for _, res := range results {
		t.AddRow(res.Config.Seed, "A->B alone", res.CenterShareAlone, res.MeanCenterDistAlone, res.DeliveredAlone)
		t.AddRow(res.Config.Seed, "A->B + C<->D", res.CenterShareWithCross, res.MeanCenterDistWithCross, res.DeliveredWithCross)
		share[0] += res.CenterShareAlone
		share[1] += res.CenterShareWithCross
		dist[0] += res.MeanCenterDistAlone
		dist[1] += res.MeanCenterDistWithCross
		delivered[0] += float64(res.DeliveredAlone)
		delivered[1] += float64(res.DeliveredWithCross)
	}
	if n := float64(len(results)); n > 1 {
		t.AddRow("mean", "A->B alone", share[0]/n, dist[0]/n, delivered[0]/n)
		t.AddRow("mean", "A->B + C<->D", share[1]/n, dist[1]/n, delivered[1]/n)
	}
	return t
}

// Fig2SVG renders scenario (b) — the congested run — as a standalone
// SVG document: gray nodes, blue A→B relays, orange C↔D relays,
// labeled endpoints.
func Fig2SVG(res Fig2Result, width float64) string {
	rect := geo.NewRect(res.Config.Terrain, res.Config.Terrain)
	return trace.RenderSVG(rect, res.Positions, res.WithCross,
		[]trace.FlowSpec{
			{Origin: res.C, Kind: packet.KindData, Color: "#e69f00"},
			{Origin: res.D, Kind: packet.KindData, Color: "#e69f00"},
			{Origin: res.A, Kind: packet.KindData, Color: "#0072b2"},
		},
		map[packet.NodeID]string{res.A: "A", res.B: "B", res.C: "C", res.D: "D"},
		width)
}
