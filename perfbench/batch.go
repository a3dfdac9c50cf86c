package main

import (
	"fmt"

	"routeless/internal/metrics"
	"routeless/internal/scenario"
	"routeless/internal/sim"
)

// chunks is how many AdvanceTo calls carry a document to its end.
const chunks = 32

// window collects everything one measured window produced.
type window struct {
	passes   int
	elapsedS float64
	// Timed calls are measured in process CPU seconds (every thread),
	// which leave out time the host takes the CPU away; wall seconds
	// are kept beside them for the report.
	passS    []float64 // run_s samples, one per pass
	passWall []float64 // wall seconds of the same calls
	// hostS is, per untraced pass, the mean CPU seconds of one host
	// probe taken after each of the pass's documents or sessions.
	hostS    []float64
	buildS   []float64
	finishS  []float64
	retained []float64 // bytes per node, one per build
	heap     *heapProbe
	rt       runtimeCounters // runtime counter deltas over the window

	// serve_checkpoint only.
	sessionS, snapshotS, createS, firstByteS, resumeS []float64
}

// openPass starts a pass whose timed calls runDocument accumulates.
func (w *window) openPass() { w.passS, w.passWall = append(w.passS, 0), append(w.passWall, 0) }

// runner executes passes of one workload. Its first-run outcomes and
// per-pass counts persist across windows, so every later run of a
// document, traced or not, is checked against the first.
type runner interface {
	pass(w *window, tr *tracer)
	counts() passCounts
}

// passCounts are the deterministic per-pass figures: metric-registry
// counters summed over the pass's documents, plus kernel and journal
// totals.
type passCounts struct {
	counters      map[string]float64
	events        float64
	queuePeak     float64
	journalBytes  float64
	snapshotBytes float64
	docEvents     []float64 // per document, in pass order
}

func (c *passCounts) add(snap *metrics.Snapshot, events uint64, queuePeak int, journalBytes int) {
	if c.counters == nil {
		c.counters = make(map[string]float64)
	}
	for _, s := range snap.Samples {
		if s.Kind == "counter" {
			c.counters[s.Name] += float64(s.Count)
		}
	}
	c.events += float64(events)
	c.docEvents = append(c.docEvents, float64(events))
	c.queuePeak = max(c.queuePeak, float64(queuePeak))
	c.journalBytes += float64(journalBytes)
}

// docRun is one document carried from Build to Finish.
type docRun struct {
	out       outcome
	snap      *metrics.Snapshot
	queuePeak int
	journal   []byte // kept only when asked
	end       sim.Time
	finishErr error
}

// runDocument builds sc, advances it to its end in chunks and finishes
// it, timing each public call from outside. Untraced, a retained-heap
// probe (a forced GC either side of Build) sits outside the timed
// calls; traced runs skip it so the profile holds only the program's
// own collections.
func runDocument(sc scenario.Scenario, w *window, tr *tracer, parent int, keepJournal bool) (docRun, error) {
	var before uint64
	if !tr.on {
		before = liveHeap()
	}
	var run *scenario.Run
	var err error
	st := now()
	tr.do("scenario.Build", parent, 0, func(int) { run, err = scenario.Build(sc) })
	_, buildCPU := st.since()
	w.buildS = append(w.buildS, buildCPU)
	if err != nil {
		return docRun{}, err
	}
	if !tr.on {
		after := liveHeap()
		w.retained = append(w.retained, float64(max(after, before)-before)/float64(sc.N))
	}

	sink := newJournalSink(keepJournal)
	run.SetJournal(metrics.NewJournal(sink))
	end := run.End()
	var runS, runCPU float64
	for k := 1; k <= chunks; k++ {
		t := end
		if k < chunks {
			t = sim.Time(float64(end) * float64(k) / chunks)
		}
		st = now()
		tr.do("Run.AdvanceTo", parent, 0, func(int) { err = run.AdvanceTo(t) })
		wall, cpu := st.since()
		runS, runCPU = runS+wall, runCPU+cpu
		w.heap.observe()
		if err != nil {
			return docRun{}, err
		}
	}
	var ferr error
	st = now()
	tr.do("Run.Finish", parent, 0, func(int) { _, ferr = run.Finish() })
	finish, finishCPU := st.since()
	w.finishS = append(w.finishS, finishCPU)
	w.passS[len(w.passS)-1] += runCPU + finishCPU
	w.passWall[len(w.passWall)-1] += runS + finish
	w.heap.observe()

	nw := run.Network()
	snap := nw.Metrics.Snapshot()
	out, err := newOutcome(sink, snap, nw.Processed())
	if err != nil {
		return docRun{}, err
	}
	dr := docRun{out: out, snap: snap, queuePeak: nw.Kernel.Pool().Peak(), end: end, finishErr: ferr}
	if keepJournal {
		dr.journal = sink.buf.Bytes()
	}
	return dr, nil
}

// batchRunner runs a fixed document set once per pass.
type batchRunner struct {
	docs  []scenario.Scenario
	first []*outcome
	pc    passCounts
	tally *tally
}

func newBatchRunner(docs []scenario.Scenario, t *tally) *batchRunner {
	return &batchRunner{docs: docs, first: make([]*outcome, len(docs)), tally: t}
}

func (b *batchRunner) counts() passCounts { return b.pc }

func (b *batchRunner) pass(w *window, tr *tracer) {
	w.openPass()
	var host float64
	tr.do("pass", 0, 0, func(pid int) {
		for i, sc := range b.docs {
			tr.do("document", pid, 0, func(did int) {
				b.tally.record(b.runOne(i, sc, w, tr, did))
			})
			if !tr.on {
				_, cpu := probeHost()
				host += cpu
			}
		}
	})
	if !tr.on {
		w.hostS = append(w.hostS, host/float64(len(b.docs)))
	}
}

// runOne runs document i and checks it: Finish must report no
// conservation-law violation, and every run after the first must
// reproduce the first run's journal and counts exactly.
func (b *batchRunner) runOne(i int, sc scenario.Scenario, w *window, tr *tracer, parent int) error {
	dr, err := runDocument(sc, w, tr, parent, false)
	if err != nil {
		return fmt.Errorf("document %d: %w", i, err)
	}
	if dr.finishErr != nil {
		return fmt.Errorf("document %d: Finish: %w", i, dr.finishErr)
	}
	if b.first[i] == nil {
		b.first[i] = &dr.out
		b.pc.add(dr.snap, dr.out.events, dr.queuePeak, dr.out.journalBytes)
		return nil
	}
	if err := dr.out.sameAs(*b.first[i]); err != nil {
		return fmt.Errorf("document %d: %w", i, err)
	}
	return nil
}
