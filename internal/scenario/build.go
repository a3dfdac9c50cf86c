package scenario

import (
	"errors"
	"fmt"

	"routeless/internal/fault"
	"routeless/internal/flood"
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/phy"
	"routeless/internal/propagation"
	"routeless/internal/rng"
	"routeless/internal/routing"
	"routeless/internal/sim"
	"routeless/internal/traffic"
)

// drainTime is how far every run advances past traffic stop so
// in-flight packets settle before the conservation laws are checked.
const drainTime sim.Time = 5

// ErrBuild marks scenario construction failures: a validated document
// the simulator still cannot realize (typically an impossible connected
// placement). It wraps the underlying TryNew/TryInstall error.
var ErrBuild = errors.New("scenario: build failed")

// BuildOptions tunes Build without touching the document itself —
// nothing here may change simulation results.
type BuildOptions struct {
	// Runtime reuses a sweep worker's arena across builds. Build resets
	// it, so pool watermarks start from zero exactly as with a fresh
	// runtime and only the allocation count differs (the bit-for-bit
	// pooling contract from internal/sim).
	Runtime *node.Runtime
}

// Run is a built, resumable simulation: the network plus everything the
// document attached to it (traffic, mobility, faults), advanced in
// exact chunks by AdvanceTo. The zero value is not usable; construct
// with Build.
type Run struct {
	sc      Scenario
	nw      *node.Network
	tap     *appTap
	cbrs    []*traffic.CBR
	movers  []*node.Waypoint
	inj     *fault.Injector
	tracker *rng.Tracker

	journal *metrics.Journal
	epochs  int // journal epochs emitted so far
	stopped bool
	done    bool
	rm      RunMetrics
	ferr    error
}

// Build validates the document and constructs the run at t=0.
func Build(sc Scenario) (*Run, error) { return BuildWith(sc, BuildOptions{}) }

// BuildWith is Build with explicit options.
//
// The construction order is frozen — network, protocol, app tap,
// flows (in document order), movers, fault plan — because stream
// creation order, metric registration order, and kernel sequence
// numbers all derive from it.
func BuildWith(sc Scenario, opts BuildOptions) (*Run, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	tracker := rng.NewTracker()
	cfg := node.Config{
		N:         sc.N,
		Rect:      sc.Rect(),
		Positions: positions(sc),
		Range:     sc.Range,
		Seed:      sc.Seed,
		Tiles:     sc.Tiles,
		RNG:       tracker,
		Runtime:   opts.Runtime,
	}
	if opts.Runtime != nil {
		opts.Runtime.Reset()
	}
	if sc.Placement == PlaceUniform {
		cfg.EnsureConnected = sc.Connected
	}
	if sc.Fading {
		cfg.Fader = propagation.Rayleigh{}
	}
	nw, err := node.TryNew(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBuild, err)
	}
	r := &Run{sc: sc, nw: nw, tracker: tracker}
	installProtocol(nw, sc)

	r.tap = NewAppTap(nw)
	r.cbrs = make([]*traffic.CBR, len(sc.Flows))
	for i, f := range sc.Flows {
		r.cbrs[i] = traffic.NewCBR(nw.Nodes[f.Src], packet.NodeID(f.Dst), sim.Time(sc.Interval), sc.DataSize)
		r.tap.Watch(r.cbrs[i])
		r.cbrs[i].Start()
	}

	if m := sc.Mobility; m != nil {
		for i := 0; i < m.Movers; i++ {
			w := node.NewWaypoint(nw, nw.Nodes[i], tracker.New(sc.Seed, rng.StreamFuzz, SubMobility, uint64(i)))
			w.MinSpeed, w.MaxSpeed = m.MinSpeed, m.MaxSpeed
			w.Start()
			r.movers = append(r.movers, w)
		}
	}

	plan, err := sc.Plan()
	if err != nil {
		// Validate accepted the document, so this is unreachable; keep
		// the error path anyway rather than a silent nil plan.
		return nil, fmt.Errorf("%w: %w", ErrBuild, err)
	}
	inj, err := fault.TryInstall(nw, plan)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBuild, err)
	}
	r.inj = inj
	return r, nil
}

// Scenario returns the document the run was built from.
func (r *Run) Scenario() Scenario { return r.sc }

// Network returns the underlying network.
func (r *Run) Network() *node.Network { return r.nw }

// RNG returns the run's stream tracker: every random stream the
// simulation created, in creation order, with live draw counts.
func (r *Run) RNG() *rng.Tracker { return r.tracker }

// Traffic returns the run's CBR sources in flow order.
func (r *Run) Traffic() []*traffic.CBR { return r.cbrs }

// Movers returns the run's waypoint processes in node order.
func (r *Run) Movers() []*node.Waypoint { return r.movers }

// Faults returns the installed fault injector (nil when the document
// has no fault plan).
func (r *Run) Faults() *fault.Injector { return r.inj }

// Now returns the run's current simulation time.
func (r *Run) Now() sim.Time { return r.nw.Kernel.Now() }

// End returns the run's final time: traffic duration plus the drain
// window the conservation-law oracle expects.
func (r *Run) End() sim.Time { return sim.Time(r.sc.Duration) + drainTime }

// Finished reports whether Finish has folded the run. A finished run
// must not be advanced or snapshotted — folding the app tap is a
// one-way door.
func (r *Run) Finished() bool { return r.done }

// SetJournal attaches a journal. At t=0 it writes the run's start
// record (carrying the full document); attached later — a restored
// run — it emits only the records past the restore point, so the
// original prefix plus the resumed suffix equals the uninterrupted
// run's bytes exactly.
func (r *Run) SetJournal(j *metrics.Journal) {
	r.journal = j
	if j != nil && !(r.Now() > 0) {
		j.Write(metrics.Record{
			Experiment: "scenario",
			Label:      "start",
			Seed:       r.sc.Seed,
			Config:     &r.sc,
		})
	}
}

// epochTime returns the k-th journal epoch boundary.
func (r *Run) epochTime(k int) sim.Time {
	return sim.Time(float64(k) * r.sc.JournalEvery)
}

// emitEpoch writes the periodic metrics record at boundary time t.
func (r *Run) emitEpoch(t sim.Time) {
	if r.journal == nil {
		return
	}
	r.journal.Write(metrics.Record{
		Experiment: "scenario",
		Label:      fmt.Sprintf("epoch t=%g", float64(t)),
		Seed:       r.sc.Seed,
		Metrics:    r.nw.Metrics.Snapshot(),
	})
}

// stopTraffic freezes sources and movers at the traffic deadline,
// opening the drain window.
func (r *Run) stopTraffic() {
	for _, c := range r.cbrs {
		c.Stop()
	}
	for _, w := range r.movers {
		w.Stop()
	}
	r.stopped = true
}

// AdvanceTo runs the simulation to exactly t. It is resumable and
// chunk-exact: advancing 0→2T in one call, in two calls, or in a
// restored twin of the run executes the identical event sequence,
// because the kernel's RunUntil is already exact under arbitrary
// intermediate barriers. Internal boundaries — the traffic stop at
// Duration and each JournalEvery epoch — are always honored at their
// exact times regardless of the caller's chunking.
func (r *Run) AdvanceTo(t sim.Time) error {
	if r.done {
		return fmt.Errorf("scenario: run already finished")
	}
	if t < r.Now() {
		return fmt.Errorf("scenario: cannot rewind to t=%v (now %v)", t, r.Now())
	}
	if t > r.End() {
		return fmt.Errorf("scenario: t=%v beyond run end %v", t, r.End())
	}
	durT := sim.Time(r.sc.Duration)
	for r.Now() < t {
		next := t
		atEpoch := false
		if r.sc.JournalEvery > 0 {
			if ev := r.epochTime(r.epochs + 1); ev <= next {
				next = ev
				atEpoch = true
			}
		}
		stopHere := false
		if !r.stopped && durT <= next {
			if durT < next {
				next = durT
				atEpoch = false
			}
			stopHere = true
		}
		r.nw.Run(next)
		if stopHere {
			r.stopTraffic()
		}
		if atEpoch {
			r.emitEpoch(next)
			r.epochs++
		}
	}
	return nil
}

// Finish advances to End, folds the app tap, checks the conservation
// laws, writes the final journal record, and returns the run's
// paper-unit metrics. The returned error is the oracle verdict
// (invariant violations), not a transport failure; the metrics are
// valid either way. Finish is idempotent.
func (r *Run) Finish() (RunMetrics, error) {
	if r.done {
		return r.rm, r.ferr
	}
	if err := r.AdvanceTo(r.End()); err != nil {
		return RunMetrics{}, err
	}
	rm, err := CollectChecked(r.nw, r.tap)
	r.rm, r.ferr, r.done = rm, err, true
	if r.journal != nil {
		r.journal.Write(metrics.Record{
			Experiment: "scenario",
			Label:      "final",
			Seed:       r.sc.Seed,
			Metrics:    r.nw.Metrics.Snapshot(),
		})
	}
	return rm, err
}

// installProtocol attaches the scenario's network layer.
func installProtocol(nw *node.Network, sc Scenario) {
	lambda := sim.Time(sc.Lambda)
	if lambda == 0 {
		lambda = 10e-3
	}
	switch sc.Protocol {
	case ProtoCounter1:
		fcfg := flood.Counter1Config(lambda)
		nw.Install(func(n *node.Node) node.Protocol { return flood.New(&fcfg) })
	case ProtoSSAF:
		minDBm, maxDBm := SSAFSpan(sc.Range)
		fcfg := flood.SSAFConfig(lambda, minDBm, maxDBm)
		nw.Install(func(n *node.Node) node.Protocol { return flood.New(&fcfg) })
	case ProtoRouteless:
		rcfg := routing.RoutelessConfig{Lambda: lambda}
		nw.Install(func(n *node.Node) node.Protocol { return routing.NewRouteless(rcfg) })
	case ProtoAODV:
		acfg := routing.AODVConfig{NoHello: true}
		nw.Install(func(n *node.Node) node.Protocol { return routing.NewAODV(acfg) })
	case ProtoGradient:
		nw.Install(func(n *node.Node) node.Protocol { return routing.NewGradient(routing.GradientConfig{}) })
	default:
		// Validate rejects unknown protocols before Build gets here.
		panic("scenario: unknown protocol " + sc.Protocol)
	}
}

// SSAFSpan returns the RSSI range SSAF maps onto its delay band: the
// decode threshold (far edge) up to the power at one tenth of the
// transmission range (near). Exported for the experiment harnesses that
// configure SSAF by hand.
func SSAFSpan(rangeM float64) (minDBm, maxDBm float64) {
	model := propagation.NewFreeSpace()
	params := phy.DefaultParams(model, rangeM)
	minDBm = params.RxThreshDBm
	maxDBm = propagation.ThresholdFor(model, params.TxPowerDBm, rangeM/10)
	return
}
