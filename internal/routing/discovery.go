package routing

import (
	"math/rand"

	"routeless/internal/packet"
	"routeless/internal/sim"
)

// pendingData is one data packet parked behind a route/gradient
// discovery, keeping its original creation time so end-to-end delay
// includes discovery latency.
type pendingData struct {
	size    int
	created sim.Time
}

// discovery is the per-target discovery state: the retry timer, the
// retry count, and the data queued until the route (or gradient)
// exists.
type discovery struct {
	timer   *sim.Timer
	retries int
	queue   []pendingData
}

// discoverySet is the shared per-target discovery bookkeeping used by
// all three routing protocols. The three implementations used to drift
// on exactly the life-cycle corners this type centralizes: stopping the
// timer on success (so no stale timeout can fire afterwards), removing
// the entry exactly once, and handing the queued data back to the
// caller for flushing or drop accounting.
type discoverySet map[packet.NodeID]*discovery

// ensure returns the discovery for target, creating it on first use
// with a timer bound to onTimeout. started reports whether this call
// created it — the caller then emits the first flood and arms the
// timer.
func (s discoverySet) ensure(target packet.NodeID, k *sim.Kernel, onTimeout func()) (d *discovery, started bool) {
	if d, ok := s[target]; ok {
		return d, false
	}
	d = &discovery{timer: sim.NewTimer(k, onTimeout)}
	s[target] = d
	return d, true
}

// arm (re)starts d's timer: timeout plus a uniform jitter in
// [0, jitter) drawn from r. Two sources that start discoveries at the
// same instant are often hidden terminals to each other, so their floods
// collide at the relays between them; with a fixed timeout they would
// re-flood in lockstep and collide again on every retry. Each protocol
// passes its discovery flood's backoff window as the jitter.
func (d *discovery) arm(timeout, jitter sim.Time, r *rand.Rand) {
	d.timer.Reset(timeout + sim.Time(r.Float64())*jitter)
}

// pending reports whether a discovery for target is in progress.
func (s discoverySet) pending(target packet.NodeID) bool {
	_, ok := s[target]
	return ok
}

// succeed completes target's discovery: the timer is stopped — a stale
// timeout firing after success was one of the audited accounting bugs —
// the entry is removed, and the data queued behind the discovery is
// returned for flushing through the normal send path.
func (s discoverySet) succeed(target packet.NodeID) []pendingData {
	d, ok := s[target]
	if !ok {
		return nil
	}
	d.timer.Stop()
	delete(s, target)
	return d.queue
}

// step advances target's discovery at a timeout firing and reports
// whether another retry should run. retry == false with d != nil means
// the discovery gave up: the entry is removed (timer defensively
// stopped) and d.queue holds the never-sent data for drop accounting.
// d == nil means no discovery was pending — a stale firing with nothing
// to do.
func (s discoverySet) step(target packet.NodeID, maxRetries int) (d *discovery, retry bool) {
	d, ok := s[target]
	if !ok {
		return nil, false
	}
	d.retries++
	if d.retries > maxRetries {
		d.timer.Stop()
		delete(s, target)
		return d, false
	}
	return d, true
}
