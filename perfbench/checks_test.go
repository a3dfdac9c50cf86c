package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"routeless/internal/metrics"
	"routeless/internal/scenario"
)

// tinyDoc is a journaled document small enough for a unit test.
func tinyDoc() scenario.Scenario {
	return scenario.Scenario{
		Seed: 3, N: 12, Width: 400, Height: 400, Range: 250,
		Placement: scenario.PlaceUniform, Connected: true,
		Protocol: scenario.ProtoRouteless, Flows: []scenario.Flow{{Src: 0, Dst: 7}},
		Interval: 0.5, DataSize: 64, Duration: 3, JournalEvery: 1,
	}
}

func runTiny(t *testing.T) docRun {
	t.Helper()
	w := &window{heap: newHeapProbe()}
	w.openPass()
	dr, err := runDocument(tinyDoc(), w, untraced, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if dr.finishErr != nil {
		t.Fatal(dr.finishErr)
	}
	return dr
}

func TestRepeatRunIsIdentical(t *testing.T) {
	a, b := runTiny(t), runTiny(t)
	if err := b.out.sameAs(a.out); err != nil {
		t.Fatalf("two runs of one document differ: %v", err)
	}
	if a.out.journalBytes == 0 || !bytes.Equal(a.journal, b.journal) {
		t.Fatalf("journals differ or are empty (%d bytes)", a.out.journalBytes)
	}
}

// TestTamperedJournalCounts flips one journal byte and checks that the
// repeat-run check reports it and the tally counts it as a failure.
func TestTamperedJournalCounts(t *testing.T) {
	first := runTiny(t)
	tampered := bytes.Clone(first.journal)
	tampered[len(tampered)/2] ^= 1
	sink := newJournalSink(false)
	sink.Write(tampered)
	var snap metrics.Snapshot
	if err := json.Unmarshal(first.out.counts, &snap); err != nil {
		t.Fatal(err)
	}
	again, err := newOutcome(sink, &snap, first.out.events)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	tl.record(nil)
	tl.record(again.sameAs(first.out))
	if tl.attempted != 2 || tl.failed != 1 || tl.errorRate() != 0.5 {
		t.Fatalf("tally = %d attempted, %d failed (rate %v); want 2, 1, 0.5", tl.attempted, tl.failed, tl.errorRate())
	}
}

func TestCheckStreams(t *testing.T) {
	journal := runTiny(t).journal
	cut := bytes.IndexByte(journal, '\n') + 1
	suffix := journal[cut:]
	if err := checkStreams(journal, journal, suffix); err != nil {
		t.Fatalf("intact streams rejected: %v", err)
	}
	tampered := bytes.Clone(journal)
	tampered[len(tampered)-2] ^= 1
	if checkStreams(journal, tampered, suffix) == nil {
		t.Error("a streamed journal that differs from the batch bytes passed")
	}
	if checkStreams(journal, journal, tampered[cut:]) == nil {
		t.Error("a resumed journal that is not a suffix passed")
	}
	if checkStreams(journal, journal, nil) == nil {
		t.Error("an empty resumed journal passed")
	}
}

// TestServePassChecksSessions runs one pass of three sessions against
// the in-process server: every session's streamed journal must
// equal its batch reference and its resumed journal must be the suffix.
func TestServePassChecksSessions(t *testing.T) {
	a, b := tinyDoc(), tinyDoc()
	b.Seed = 4
	var tl tally
	setup := &window{heap: newHeapProbe()}
	s, err := newServeRunner([]scenario.Scenario{a, b, a}, &tl, setup)
	if err != nil {
		t.Fatal(err)
	}
	w := &window{heap: newHeapProbe()}
	s.pass(w, newTracer())
	if tl.attempted != 6 || tl.failed != 0 {
		t.Fatalf("tally = %d attempted, %d failed (%v); want 6, 0", tl.attempted, tl.failed, tl.reasons)
	}
	if len(w.sessionS) != 3 || s.counts().snapshotBytes == 0 {
		t.Fatalf("recorded %d sessions and %v snapshot bytes", len(w.sessionS), s.counts().snapshotBytes)
	}
}
