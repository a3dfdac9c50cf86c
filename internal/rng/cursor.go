package rng

import "math/rand"

// cursor wraps a rand.Source64 and counts draws. Both rand.NewSource's
// stdlib source and compactSource implement Source64, and rand.Rand
// takes the same internal code paths whether it holds the raw source or
// this wrapper (forwarding is exact), so a tracked stream produces the
// identical draw sequence to its untracked twin — the counter observes,
// never perturbs.
type cursor struct {
	src rand.Source64
	n   uint64
}

func (c *cursor) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *cursor) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *cursor) Seed(seed int64) { c.src.Seed(seed) }

// Tracker is an ordered registry of tracked random streams. Every
// stream created through it records its derivation labels and a live
// draw count; Visit walks them in creation order, which is itself
// deterministic because stream creation order is part of the simulator
// construction path. Snapshot verification hashes (labels, draws) per
// stream: two runs whose trackers hash equal have consumed randomness
// identically.
//
// A Tracker is not safe for concurrent use; like every other simulator
// component it belongs to exactly one run.
type Tracker struct {
	streams []*cursor
	labels  [][]uint64
}

// NewTracker returns an empty registry.
func NewTracker() *Tracker { return &Tracker{} }

func (t *Tracker) track(src rand.Source64, labels []uint64) *rand.Rand {
	c := &cursor{src: src}
	t.streams = append(t.streams, c)
	t.labels = append(t.labels, labels)
	return rand.New(c)
}

// New is the tracked twin of the package-level New: same derivation,
// same draw sequence, plus a registered cursor. A nil tracker returns
// the untracked stream, so callers never branch on whether tracking is
// on.
func (t *Tracker) New(seed int64, labels ...uint64) *rand.Rand {
	if t == nil {
		return New(seed, labels...)
	}
	src := rand.NewSource(Derive(seed, labels...)).(rand.Source64)
	return t.track(src, labels)
}

// ForNode is the tracked twin of the package-level ForNode; a nil
// tracker returns the untracked stream.
func (t *Tracker) ForNode(seed int64, layer uint64, nodeID int) *rand.Rand {
	if t == nil {
		return ForNode(seed, layer, nodeID)
	}
	return t.track(nodeSource(seed, layer, nodeID), []uint64{layer, uint64(nodeID) + 0x1000})
}

// Len reports how many streams have been created through the tracker.
func (t *Tracker) Len() int { return len(t.streams) }

// Visit calls fn for every tracked stream in creation order with its
// derivation labels and the number of draws consumed so far.
func (t *Tracker) Visit(fn func(labels []uint64, draws uint64)) {
	for i, c := range t.streams {
		fn(t.labels[i], c.n)
	}
}
