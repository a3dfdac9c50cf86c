// Package rng provides deterministic random-stream derivation for
// simulations. A single master seed is split into independent child
// streams (per node, per protocol layer, per experiment replication)
// with SplitMix64, so that adding a consumer of randomness in one part
// of the system does not perturb the draws seen by another — a property
// plain sequential use of one rand.Rand does not have.
package rng

import "math/rand"

// splitmix64 advances the state and returns the next output. It is the
// standard SplitMix64 generator (Steele, Lea, Flood; JDK 8), used here
// only for seed derivation, not as the simulation RNG itself.
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Derive deterministically combines a parent seed with an arbitrary set
// of stream labels and returns a child seed. Derive(s, a, b) differs
// from Derive(s, b, a) and from Derive(s, a) — labels are positional.
func Derive(seed int64, labels ...uint64) int64 {
	state := uint64(seed) ^ 0x6a09e667f3bcc908 // golden offset keeps seed 0 usable
	var out uint64
	state, out = splitmix64(state)
	for _, l := range labels {
		state ^= l * 0x9e3779b97f4a7c15
		state, out = splitmix64(state)
	}
	return int64(out)
}

// New returns a rand.Rand seeded from the parent seed and labels via
// Derive.
func New(seed int64, labels ...uint64) *rand.Rand {
	return rand.New(rand.NewSource(Derive(seed, labels...)))
}

// compactSource is the 8-byte SplitMix64 rand.Source64 behind every
// per-node stream. The stdlib rngSource behind rand.NewSource carries a
// ~4.9 KB lag table; with two or three per-node streams (network layer,
// MAC, failure process) that table would dominate per-node memory.
// SplitMix64 passes BigCrush, and its 2^64 period is orders of
// magnitude beyond any simulation's draw count. The O(1) global streams
// made by New keep the stdlib source.
type compactSource struct{ state uint64 }

func (s *compactSource) Uint64() uint64 {
	var out uint64
	s.state, out = splitmix64(s.state)
	return out
}

func (s *compactSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *compactSource) Seed(seed int64) { s.state = uint64(seed) }

// Stream labels used across the repository, kept in one place so
// different subsystems never collide.
const (
	StreamTopology uint64 = 1 + iota // node placement
	StreamTraffic                    // flow endpoints, start jitter, payloads
	StreamMAC                        // MAC backoff slots
	StreamNet                        // network-layer backoff draws
	StreamFailure                    // duty-cycle failure process
	StreamChannel                    // fading draws
	StreamElection                   // election metric jitter
	StreamFault                      // fault-plane spec streams (jammer walk, link picks)
	StreamFuzz                       // scenario-fuzzer draws (generator, placements, mobility)
)

// ForNode derives a per-node, per-layer stream over a compactSource:
// same master seed and node id always yield the same stream regardless
// of how many nodes the simulation has or in which order they were
// built.
func ForNode(seed int64, layer uint64, nodeID int) *rand.Rand {
	return rand.New(nodeSource(seed, layer, nodeID))
}

// nodeSource seeds the compactSource behind ForNode from the labels
// (layer, nodeID+0x1000).
func nodeSource(seed int64, layer uint64, nodeID int) *compactSource {
	return &compactSource{state: uint64(Derive(seed, layer, uint64(nodeID)+0x1000))}
}
