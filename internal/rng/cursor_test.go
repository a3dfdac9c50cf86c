package rng

import (
	"math/rand"
	"testing"
)

// TestTrackedStreamIdentity: a stream created through a Tracker must
// produce exactly the draws of its untracked twin — the cursor counts,
// it never perturbs. This is the property the snapshot oracle's RNG
// digest rests on. A nil tracker hands out the untracked streams
// themselves.
func TestTrackedStreamIdentity(t *testing.T) {
	same := func(name string, a, b *rand.Rand) {
		t.Helper()
		for i := 0; i < 1000; i++ {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("%s: draw %d diverged: %#x vs %#x", name, i, x, y)
			}
		}
	}
	tr := NewTracker()
	same("tracked New", tr.New(42, StreamTraffic, 3), New(42, StreamTraffic, 3))
	same("tracked ForNode", tr.ForNode(42, StreamMAC, 7), ForNode(42, StreamMAC, 7))

	var none *Tracker
	same("nil-tracker New", none.New(42, StreamTraffic, 3), New(42, StreamTraffic, 3))
	same("nil-tracker ForNode", none.ForNode(42, StreamMAC, 7), ForNode(42, StreamMAC, 7))
}

// TestTrackerVisit: Len and Visit expose streams in creation order
// with exact draw counts and the derivation labels they were created
// under.
func TestTrackerVisit(t *testing.T) {
	tr := NewTracker()
	a := tr.New(1, StreamTraffic)
	b := tr.ForNode(1, StreamMAC, 5)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	a.Uint64()
	a.Uint64()
	a.Uint64()
	b.Uint64()

	var labels [][]uint64
	var draws []uint64
	tr.Visit(func(l []uint64, n uint64) {
		labels = append(labels, l)
		draws = append(draws, n)
	})
	if len(draws) != 2 || draws[0] != 3 || draws[1] != 1 {
		t.Fatalf("draw counts = %v, want [3 1]", draws)
	}
	if len(labels[0]) != 1 || labels[0][0] != StreamTraffic {
		t.Fatalf("stream 0 labels = %v", labels[0])
	}
	if len(labels[1]) != 2 || labels[1][0] != StreamMAC || labels[1][1] != 5+0x1000 {
		t.Fatalf("stream 1 labels = %v", labels[1])
	}
}

// TestTrackerCountsRandCalls: rand.Rand helpers that internally draw
// more than once (Float64 rejection sampling, Intn) are still counted
// exactly, because the cursor sits below rand.Rand.
func TestTrackerCountsRandCalls(t *testing.T) {
	tr := NewTracker()
	r := tr.New(9, StreamFuzz)
	for i := 0; i < 100; i++ {
		r.Float64()
		r.Intn(10)
	}
	var total uint64
	tr.Visit(func(_ []uint64, n uint64) { total = n })
	if total < 200 {
		t.Fatalf("counted %d source draws for 200 rand calls, want >= 200", total)
	}
}
