package node_test

import (
	"encoding/json"
	"testing"

	"routeless/internal/fault"
	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/routing"
	"routeless/internal/traffic"
)

// TestTrackerDoesNotPerturb builds one configuration twice — untracked
// (RNG nil) and through a draw tracker — with a crash plan and a jammer
// installed through fault.Install, so every stream kind is created:
// placement and channel, per-node network and MAC, per-node failure,
// and per-spec fault streams. The tracker only observes, so the two
// runs must agree on every metric and on the event count.
func TestTrackerDoesNotPerturb(t *testing.T) {
	run := func(tr *rng.Tracker) (*node.Network, []byte) {
		nw := node.New(node.Config{
			N:               25,
			Rect:            geo.NewRect(500, 500),
			Seed:            19,
			EnsureConnected: true,
			RNG:             tr,
		})
		nw.Install(func(*node.Node) node.Protocol {
			return routing.NewRouteless(routing.RoutelessConfig{})
		})
		last := packet.NodeID(len(nw.Nodes) - 1)
		crash := fault.Crash(0.2)
		crash.Exclude = []packet.NodeID{0, last}
		fault.Install(nw, fault.Plan{crash, fault.Jam(0)})
		cbr := traffic.NewCBR(nw.Nodes[0], last, 0.25, 64)
		cbr.Start()
		nw.Run(8)
		cbr.Stop()
		nw.Run(10)
		snap, err := json.Marshal(nw.Metrics.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return nw, snap
	}
	tr := rng.NewTracker()
	plain, plainSnap := run(nil)
	tracked, trackedSnap := run(tr)
	if tr.Len() == 0 {
		t.Fatal("tracked build created no streams through the tracker")
	}
	if g, w := plain.Processed(), tracked.Processed(); g != w {
		t.Fatalf("event count: untracked %d, tracked %d", g, w)
	}
	if string(plainSnap) != string(trackedSnap) {
		t.Fatalf("metrics diverged:\nuntracked: %s\ntracked:   %s", plainSnap, trackedSnap)
	}
	snap := plain.Metrics.Snapshot()
	if snap.Count("fault.crashes") == 0 || snap.Count("fault.jam_bursts") == 0 {
		t.Fatal("a fault never fired; its streams went unexercised")
	}
}
