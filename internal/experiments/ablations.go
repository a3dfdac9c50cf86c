package experiments

import (
	"routeless/internal/core"
	"routeless/internal/flood"
	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/routing"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/stats"
	"routeless/internal/sweep"
	"routeless/internal/traffic"
)

// --- ABL1: SSAF with and without duplicate cancellation ---------------

// Abl1Row compares SSAF and SSAF-C at one traffic level.
type Abl1Row struct {
	Interval float64
	SSAF     Agg // forwards counted in MACPackets
	SSAFC    Agg
}

// RunAbl1 reuses the Figure 1 rig with the cancellation flag toggled.
func RunAbl1(cfg Fig1Config) []Abl1Row {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("abl1", len(cfg.Intervals)*2, cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) scenario.RunMetrics {
		pi, cancel := versusPoint(c.Point)
		return runSSAFOnce(ctx, cfg, cfg.Intervals[pi], cancel, c.Seed)
	})
	rows := make([]Abl1Row, len(cfg.Intervals))
	for i, iv := range cfg.Intervals {
		rows[i].Interval = iv
	}
	for i, c := range cells {
		pi, cancel := versusPoint(c.Point)
		if cancel {
			rows[pi].SSAFC.Add(results[i])
		} else {
			rows[pi].SSAF.Add(results[i])
		}
	}
	return rows
}

// runSSAFOnce hand-assembles the Figure 1 rig: the document has no
// field for SSAF's cancellation flag.
func runSSAFOnce(ctx *sweep.Context, cfg Fig1Config, interval float64, cancel bool, seed int64) scenario.RunMetrics {
	nw := node.New(node.Config{
		N: cfg.Nodes, Rect: geo.NewRect(cfg.Terrain, cfg.Terrain),
		Range: cfg.Range, Seed: seed, EnsureConnected: true,
		Runtime: ctx.Runtime(),
	})
	minDBm, maxDBm := scenario.SSAFSpan(cfg.Range)
	fcfg := flood.SSAFConfig(cfg.Lambda, minDBm, maxDBm)
	fcfg.Cancel = cancel
	nw.Install(func(n *node.Node) node.Protocol { return flood.New(&fcfg) })
	tap := scenario.NewAppTap(nw)
	pairs := traffic.RandomPairs(rng.New(seed, rng.StreamTraffic), cfg.Nodes, cfg.Connections)
	var cbrs []*traffic.CBR
	for _, p := range pairs {
		c := traffic.NewCBR(nw.Nodes[p.Src], p.Dst, sim.Time(interval), packet.SizeData)
		tap.Watch(c)
		c.Start()
		cbrs = append(cbrs, c)
	}
	nw.Run(sim.Time(cfg.Duration))
	for _, c := range cbrs {
		c.Stop()
	}
	nw.Run(sim.Time(cfg.Duration) + drainTime)
	countNetworkEvents(nw)
	return mustPass(scenario.CollectChecked(nw, tap))
}

// Abl1Table renders the comparison.
func Abl1Table(rows []Abl1Row) *stats.Table {
	t := stats.NewTable(
		"ABL1 — SSAF vs SSAF-C (duplicate cancellation)",
		"interval_s",
		"ssaf_mac_pkts", "ssafc_mac_pkts",
		"ssaf_delivery", "ssafc_delivery",
		"ssaf_delay_s", "ssafc_delay_s",
	)
	for _, r := range rows {
		t.AddRow(r.Interval,
			r.SSAF.MACPackets.Mean(), r.SSAFC.MACPackets.Mean(),
			r.SSAF.Delivery.Mean(), r.SSAFC.Delivery.Mean(),
			r.SSAF.Delay.Mean(), r.SSAFC.Delay.Mean(),
		)
	}
	return t
}

// --- ABL2: Routeless λ sweep ------------------------------------------

// Abl2Row captures the λ tradeoff (§4.1: small λ collides, large λ
// delays).
type Abl2Row struct {
	Lambda sim.Time
	RR     Agg
}

// RunAbl2 sweeps λ on the Figure 3 rig at a fixed pair count.
func RunAbl2(cfg Fig34Config, lambdas []sim.Time, pairs int) []Abl2Row {
	cfg = cfg.withDefaults()
	if len(lambdas) == 0 {
		lambdas = []sim.Time{1e-3, 2e-3, 5e-3, 10e-3, 20e-3, 50e-3, 100e-3}
	}
	if pairs == 0 {
		pairs = 5
	}
	cells := sweep.Cells("abl2", len(lambdas), cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) scenario.RunMetrics {
		run := cfg
		run.Lambda = lambdas[c.Point]
		sc, _ := run.doc(scenario.ProtoRouteless, pairs, c.Seed)
		return runDoc(ctx, sc, false).RunMetrics
	})
	rows := make([]Abl2Row, len(lambdas))
	for i, l := range lambdas {
		rows[i].Lambda = l
	}
	for i, c := range cells {
		rows[c.Point].RR.Add(results[i])
	}
	return rows
}

// Abl2Table renders the λ sweep.
func Abl2Table(rows []Abl2Row) *stats.Table {
	t := stats.NewTable(
		"ABL2 — Routeless Routing λ sweep (§4.1 tradeoff)",
		"lambda_ms", "delay_s", "delivery", "mac_pkts",
	)
	for _, r := range rows {
		t.AddRow(r.Lambda.Millis(), r.RR.Delay.Mean(), r.RR.Delivery.Mean(), r.RR.MACPackets.Mean())
	}
	return t
}

// --- ABL3: election outcome probabilities ------------------------------

// Abl3Row measures leader-election outcomes on the abstract medium as
// neighborhood size grows: probability of a clean single leader, of
// collisions (no leader), and mean rounds with an arbiter.
type Abl3Row struct {
	Nodes          int
	SingleLeader   float64 // share of trials electing exactly one leader
	NoLeader       float64 // share where collisions destroyed the round
	MeanRounds     float64 // arbiter rounds until success
	MeanBroadcasts float64 // announcements + acks + syncs per success
}

// abl3Out is one trial's outcome as it crosses the sweep boundary.
type abl3Out struct {
	single, none, rounds, bcasts float64
}

// RunAbl3 measures election behavior over `trials` independent cliques
// per size, one sweep cell per (size, trial).
func RunAbl3(workers int, sizes []int, trials int, lambda sim.Time, seed int64) []Abl3Row {
	if len(sizes) == 0 {
		sizes = []int{2, 5, 10, 20, 50}
	}
	if trials == 0 {
		trials = 200
	}
	// Each trial derives its own streams from (seed, size index, trial),
	// so the cell seed is just the trial index; determinism rides on the
	// derivation, exactly as the serial loop did.
	trialSeeds := make([]int64, trials)
	for i := range trialSeeds {
		trialSeeds[i] = int64(i)
	}
	cells := sweep.Cells("abl3", len(sizes), trialSeeds)
	results := sweep.Run(workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) abl3Out {
		return runElectionOnce(ctx, sizes[c.Point], c.Point, c.Rep, lambda, seed)
	})
	rows := make([]Abl3Row, len(sizes))
	for si, n := range sizes {
		rows[si].Nodes = n
	}
	for i, c := range cells {
		r := &rows[c.Point]
		r.SingleLeader += results[i].single
		r.NoLeader += results[i].none
		r.MeanRounds += results[i].rounds
		r.MeanBroadcasts += results[i].bcasts
	}
	for si := range rows {
		rows[si].SingleLeader /= float64(trials)
		rows[si].NoLeader /= float64(trials)
		rows[si].MeanRounds /= float64(trials)
		rows[si].MeanBroadcasts /= float64(trials)
	}
	return rows
}

// runElectionOnce runs one clique trial on the abstract medium.
func runElectionOnce(ctx *sweep.Context, n, si, trial int, lambda sim.Time, seed int64) abl3Out {
	k := sim.NewKernelPooled(rng.Derive(seed, uint64(si), uint64(trial)), ctx.Runtime().Events)
	// Message latency comparable to λ/4 makes near-ties collide,
	// like real airtime does.
	cl := core.NewCluster(k, n+1, lambda/4, lambda/20, 0,
		rng.New(seed, rng.StreamElection, uint64(si), uint64(trial)))
	cl.ConnectAll()
	electors := make([]*core.Elector, n)
	for i := 0; i < n; i++ {
		electors[i] = core.NewElector(k, packet.NodeID(i), cl, core.Uniform{Max: lambda})
		cl.AttachElector(electors[i])
	}
	arb := core.NewArbiter(k, packet.NodeID(n), cl, lambda*4)
	arb.MaxRetries = 20
	cl.AttachArbiter(arb)
	arb.Trigger()
	k.Run()
	countEvents(k)
	var out abl3Out
	winners := 0
	for _, e := range electors {
		if o := e.Current(); o.Won && o.Round == 1 {
			winners++
		}
	}
	switch {
	case winners == 1:
		out.single = 1
	case winners == 0 || arb.Leader() == packet.None:
		out.none = 1
	}
	if arb.Leader() != packet.None {
		out.rounds = float64(arb.Stats().Triggers)
	}
	out.bcasts = float64(cl.Stats().Broadcasts)
	return out
}

// Abl3Table renders the election study.
func Abl3Table(rows []Abl3Row) *stats.Table {
	t := stats.NewTable(
		"ABL3 — local leader election outcomes vs neighborhood size (uniform metric, arbiter on)",
		"nodes", "p_single_leader_r1", "p_collision_r1", "mean_rounds", "mean_broadcasts",
	)
	for _, r := range rows {
		t.AddRow(r.Nodes, r.SingleLeader, r.NoLeader, r.MeanRounds, r.MeanBroadcasts)
	}
	return t
}

// --- ABL4: Routeless vs Gradient Routing -------------------------------

// Abl4Row compares the two gradient-followers at one pair count.
type Abl4Row struct {
	Pairs     int
	Routeless Agg
	Gradient  Agg
}

// RunAbl4 reuses the Figure 3 rig with Gradient Routing in AODV's seat.
func RunAbl4(cfg Fig34Config) []Abl4Row {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("abl4", len(cfg.Pairs)*2, cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) scenario.RunMetrics {
		pi, grad := versusPoint(c.Point)
		proto := scenario.ProtoRouteless
		if grad {
			proto = scenario.ProtoGradient
		}
		sc, _ := cfg.doc(proto, cfg.Pairs[pi], c.Seed)
		return runDoc(ctx, sc, false).RunMetrics
	})
	rows := make([]Abl4Row, len(cfg.Pairs))
	for i, p := range cfg.Pairs {
		rows[i].Pairs = p
	}
	for i, c := range cells {
		pi, grad := versusPoint(c.Point)
		if grad {
			rows[pi].Gradient.Add(results[i])
		} else {
			rows[pi].Routeless.Add(results[i])
		}
	}
	return rows
}

// Abl4Table renders the §4.4 comparison.
func Abl4Table(rows []Abl4Row) *stats.Table {
	t := stats.NewTable(
		"ABL4 — Routeless Routing vs Gradient Routing (§4.4 congestion claim)",
		"pairs",
		"rr_mac_pkts", "grad_mac_pkts",
		"rr_delivery", "grad_delivery",
		"rr_delay_s", "grad_delay_s",
	)
	for _, r := range rows {
		t.AddRow(r.Pairs,
			r.Routeless.MACPackets.Mean(), r.Gradient.MACPackets.Mean(),
			r.Routeless.Delivery.Mean(), r.Gradient.Delivery.Mean(),
			r.Routeless.Delay.Mean(), r.Gradient.Delay.Mean(),
		)
	}
	return t
}

// --- ABL5: duty-cycled sleeping under Routeless Routing ----------------

// Abl5Row quantifies §4.2's claim that "any node, even if it is on the
// route, can freely switch to a sleep or a standby mode to save
// energy": delivery and per-node energy as the sleep fraction grows.
type Abl5Row struct {
	SleepFraction float64
	RR            Agg
}

// RunAbl5 runs the Figure 3 rig with non-endpoint nodes duty-cycle
// sleeping instead of failing.
func RunAbl5(cfg Fig34Config, fractions []float64, pairs int) []Abl5Row {
	cfg = cfg.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0, 0.1, 0.2, 0.3, 0.5}
	}
	if pairs == 0 {
		pairs = 5
	}
	cells := sweep.Cells("abl5", len(fractions), cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) scenario.RunMetrics {
		sc, endpoints := cfg.doc(scenario.ProtoRouteless, pairs, c.Seed)
		sc.Faults = crashFaults(fractions[c.Point], true, endpoints)
		return runDoc(ctx, sc, false).RunMetrics
	})
	rows := make([]Abl5Row, len(fractions))
	for i, f := range fractions {
		rows[i].SleepFraction = f
	}
	for i, c := range cells {
		rows[c.Point].RR.Add(results[i])
	}
	return rows
}

// Abl5Table renders the sleep study.
func Abl5Table(rows []Abl5Row) *stats.Table {
	t := stats.NewTable(
		"ABL5 — duty-cycled sleeping under Routeless Routing (§4.2 energy claim)",
		"sleep_frac", "delivery", "delay_s", "energy_J", "mac_pkts",
	)
	for _, r := range rows {
		t.AddRow(r.SleepFraction, r.RR.Delivery.Mean(), r.RR.Delay.Mean(),
			r.RR.EnergyJ.Mean(), r.RR.MACPackets.Mean())
	}
	return t
}

// --- ABL6: signal-strength tie-breaking inside Routeless's bands -------

// Abl6Row compares Routeless Routing with the paper's pure §4.1
// equation against the GradientSignal variant (signal-strength
// tie-break inside each gradient band — the metric combination the
// conclusion proposes).
type Abl6Row struct {
	Pairs     int
	Pure      Agg
	SignalTie Agg
}

// RunAbl6 runs both variants on the Figure 3 rig.
func RunAbl6(cfg Fig34Config) []Abl6Row {
	cfg = cfg.withDefaults()
	cells := sweep.Cells("abl6", len(cfg.Pairs)*2, cfg.Seeds)
	results := sweep.Run(cfg.Workers, cells, func(ctx *sweep.Context, i int, c sweep.Cell) scenario.RunMetrics {
		pi, signal := versusPoint(c.Point)
		return runSignalTieOnce(ctx, cfg, cfg.Pairs[pi], signal, c.Seed)
	})
	rows := make([]Abl6Row, len(cfg.Pairs))
	for i, p := range cfg.Pairs {
		rows[i].Pairs = p
	}
	for i, c := range cells {
		pi, signal := versusPoint(c.Point)
		if signal {
			rows[pi].SignalTie.Add(results[i])
		} else {
			rows[pi].Pure.Add(results[i])
		}
	}
	return rows
}

// runSignalTieOnce hand-assembles the Figure 3 rig: the document has no
// field for Routeless's signal tie-break.
func runSignalTieOnce(ctx *sweep.Context, cfg Fig34Config, pairs int, signal bool, seed int64) scenario.RunMetrics {
	nw := node.New(node.Config{
		N: cfg.Nodes, Rect: geo.NewRect(cfg.Terrain, cfg.Terrain),
		Range: cfg.Range, Seed: seed, EnsureConnected: true,
		Runtime: ctx.Runtime(),
	})
	rcfg := routing.RoutelessConfig{Lambda: cfg.Lambda, SignalTieBreak: signal}
	nw.Install(func(n *node.Node) node.Protocol { return routing.NewRouteless(rcfg) })
	tap := scenario.NewAppTap(nw)
	conns := traffic.RandomPairs(rng.New(seed, rng.StreamTraffic), cfg.Nodes, pairs)
	var cbrs []*traffic.CBR
	for _, p := range conns {
		fwd := traffic.NewCBR(nw.Nodes[p.Src], p.Dst, sim.Time(cfg.Interval), cfg.DataSize)
		rev := traffic.NewCBR(nw.Nodes[p.Dst], p.Src, sim.Time(cfg.Interval), cfg.DataSize)
		tap.Watch(fwd)
		tap.Watch(rev)
		fwd.Start()
		rev.Start()
		cbrs = append(cbrs, fwd, rev)
	}
	nw.Run(sim.Time(cfg.Duration))
	for _, c := range cbrs {
		c.Stop()
	}
	nw.Run(sim.Time(cfg.Duration) + drainTime)
	countNetworkEvents(nw)
	return mustPass(scenario.CollectChecked(nw, tap))
}

// Abl6Table renders the tie-break comparison.
func Abl6Table(rows []Abl6Row) *stats.Table {
	t := stats.NewTable(
		"ABL6 — Routeless backoff tie-break: pure §4.1 equation vs signal-strength (conclusion's metric combination)",
		"pairs",
		"pure_mac_pkts", "sig_mac_pkts",
		"pure_hops", "sig_hops",
		"pure_delivery", "sig_delivery",
	)
	for _, r := range rows {
		t.AddRow(r.Pairs,
			r.Pure.MACPackets.Mean(), r.SignalTie.MACPackets.Mean(),
			r.Pure.Hops.Mean(), r.SignalTie.Hops.Mean(),
			r.Pure.Delivery.Mean(), r.SignalTie.Delivery.Mean(),
		)
	}
	return t
}
