package main

import (
	"fmt"
	"math"
	"math/rand"

	"routeless/internal/node"
	"routeless/internal/scenario"
)

// workload is one named input set. Every document it runs is generated
// from the workload seed; the simulator only ever sees the documents.
type workload struct {
	name string
	// serve selects the HTTP session executor; otherwise the documents
	// run through the batch executor.
	serve bool
	// docs generates one pass worth of documents from the seed.
	docs func(seed int64) ([]scenario.Scenario, error)
}

// A fig_mega-sized arena (20,000 nodes, a heap of hundreds of MiB) is
// not among them: on a host whose last-level cache other tenants share,
// its run time followed the neighbours and spread by a third across
// runs of the same code.
var workloads = []workload{
	{name: "flood_fig1", docs: floodFig1Docs},
	{name: "routing_churn", docs: routingChurnDocs},
	{name: "serve_checkpoint", serve: true, docs: serveDocs},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// docSeed draws a placement/simulation seed for one document.
func docSeed(r *rand.Rand) int64 { return 1 + r.Int63n(1<<31) }

// randomFlows draws k distinct src→dst pairs over n nodes.
func randomFlows(r *rand.Rand, n, k int) []scenario.Flow {
	seen := make(map[scenario.Flow]bool, k)
	flows := make([]scenario.Flow, 0, k)
	for len(flows) < k {
		f := scenario.Flow{Src: r.Intn(n), Dst: r.Intn(n)}
		if f.Src == f.Dst || seen[f] {
			continue
		}
		seen[f] = true
		flows = append(flows, f)
	}
	return flows
}

// sideFor returns the square terrain side (m) holding n nodes at the
// given density (nodes per km²).
func sideFor(n int, density float64) float64 { return math.Sqrt(float64(n) / density * 1e6) }

// floodFig1Docs is Figure 1's flooding setup: 100 nodes at 100/km²,
// 15 CBR flows, alternating SSAF and counter-1, no faults, no journal
// epochs.
func floodFig1Docs(seed int64) ([]scenario.Scenario, error) {
	r := rand.New(rand.NewSource(seed))
	docs := make([]scenario.Scenario, 8)
	for i := range docs {
		proto := scenario.ProtoSSAF
		if i%2 == 1 {
			proto = scenario.ProtoCounter1
		}
		docs[i] = scenario.Scenario{
			Seed: docSeed(r), N: 100, Width: 1000, Height: 1000, Range: 250,
			Placement: scenario.PlaceUniform, Connected: true,
			Protocol: proto, Flows: randomFlows(r, 100, 15),
			Interval: 2, DataSize: 64, Duration: 10,
		}
	}
	return docs, nil
}

// placement returns the nodes a document places. Placement depends
// only on the document's seed, size and terrain, so a build without
// flows or faults shows the positions the final document will use.
func placement(sc scenario.Scenario) ([]*node.Node, error) {
	sc.Flows, sc.Faults = nil, nil
	run, err := scenario.Build(sc)
	if err != nil {
		return nil, err
	}
	return run.Network().Nodes, nil
}

// Routing workload shape: Figure 4's density (125 nodes/km²) at 150
// nodes, 8 unicast flows whose endpoints sit a fixed distance band
// apart, so a seed changes the topology but not the path length.
const (
	routingNodes   = 150
	routingFlows   = 8
	routingMinDist = 600.0
	routingMaxDist = 900.0
)

// routingChurnDocs alternates Routeless and AODV documents under the
// churn study's composite fault plan (duty-cycle crashes, link
// shadowing, a roaming jammer), with every flow endpoint shielded from
// crashes. AODV documents are shorter: the same traffic costs AODV
// about three times the events.
func routingChurnDocs(seed int64) ([]scenario.Scenario, error) {
	r := rand.New(rand.NewSource(seed))
	side := sideFor(routingNodes, 125)
	docs := make([]scenario.Scenario, 12)
	for i := range docs {
		sc := scenario.Scenario{
			Seed: docSeed(r), N: routingNodes, Width: side, Height: side, Range: 250,
			Placement: scenario.PlaceUniform, Connected: true,
			Protocol: scenario.ProtoRouteless, Interval: 0.5, DataSize: 64, Duration: 12,
		}
		if i%2 == 1 {
			sc.Protocol, sc.Duration = scenario.ProtoAODV, 6
		}
		flows, err := bandedFlows(r, sc, routingFlows, routingMinDist, routingMaxDist)
		if err != nil {
			return nil, err
		}
		sc.Flows = flows
		var exclude []int
		for _, f := range flows {
			exclude = append(exclude, f.Src, f.Dst)
		}
		sc.Faults = []scenario.FaultSpec{
			{Kind: "crash", OffFraction: 0.1, Exclude: exclude},
			{Kind: "degrade", OffsetDB: -25, Period: 0.5},
			{Kind: "jam", TxPowerDBm: 24.5, Period: 0.5},
		}
		docs[i] = sc
	}
	return docs, nil
}

// bandedFlows draws k node-disjoint flows whose endpoints lie between
// minD and maxD meters apart in the document's placement.
func bandedFlows(r *rand.Rand, sc scenario.Scenario, k int, minD, maxD float64) ([]scenario.Flow, error) {
	nodes, err := placement(sc)
	if err != nil {
		return nil, err
	}
	var pairs []scenario.Flow
	for a := range nodes {
		for b := range nodes {
			if d := nodes[a].Pos.Dist(nodes[b].Pos); a != b && d >= minD && d <= maxD {
				pairs = append(pairs, scenario.Flow{Src: a, Dst: b})
			}
		}
	}
	if len(pairs) < k {
		return nil, fmt.Errorf("placement seed %d has only %d pairs %g-%g m apart", sc.Seed, len(pairs), minD, maxD)
	}
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	used := make(map[int]bool, 2*k)
	flows := make([]scenario.Flow, 0, k)
	for _, p := range pairs {
		if len(flows) == k {
			break
		}
		if used[p.Src] || used[p.Dst] {
			continue
		}
		used[p.Src], used[p.Dst] = true, true
		flows = append(flows, p)
	}
	if len(flows) < k {
		return nil, fmt.Errorf("placement seed %d has no %d disjoint pairs %g-%g m apart", sc.Seed, k, minD, maxD)
	}
	return flows, nil
}

// serveDocs are the session documents: 30-node Routeless runs with a
// journal epoch every simulated second, so clients tail a live stream
// and snapshots land on an epoch boundary. Flow endpoints sit two hops
// apart, which keeps a pass's work steady from seed to seed.
func serveDocs(seed int64) ([]scenario.Scenario, error) {
	r := rand.New(rand.NewSource(seed))
	side := sideFor(30, 94)
	docs := make([]scenario.Scenario, 24)
	for i := range docs {
		sc := scenario.Scenario{
			Seed: docSeed(r), N: 30, Width: side, Height: side, Range: 250,
			Placement: scenario.PlaceUniform, Connected: true,
			Protocol: scenario.ProtoRouteless, Interval: 0.25, DataSize: 64, Duration: 15, JournalEvery: 1,
		}
		flows, err := bandedFlows(r, sc, 4, 300, 500)
		if err != nil {
			return nil, err
		}
		sc.Flows = flows
		docs[i] = sc
	}
	return docs, nil
}
