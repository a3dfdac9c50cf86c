package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"routeless/internal/metrics"
	"routeless/internal/sim"
)

// tinyFig34 is the CI-scale routing rig shared by Figures 3 and 4 and
// the routing ablations: one seed, one pair count, one nonzero failure
// rate, on the same 30-node field the other tiny goldens use.
func tinyFig34() Fig34Config {
	return Fig34Config{
		Nodes:       30,
		Terrain:     565,
		Duration:    5,
		Seeds:       []int64{1},
		Pairs:       []int{3},
		FailurePcts: []float64{0.1},
		Fig4Pairs:   3,
	}
}

// runTinyFig34Journal journals tiny Figure 3 then tiny Figure 4 into one
// buffer.
func runTinyFig34Journal(t *testing.T, workers, tiles int) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg := tinyFig34()
	cfg.Workers = workers
	cfg.Tiles = tiles
	cfg.Journal = metrics.NewJournal(&buf)
	RunFig3(cfg)
	RunFig4(cfg)
	if err := cfg.Journal.Err(); err != nil {
		t.Fatalf("journal write failed: %v", err)
	}
	return buf.Bytes()
}

func TestFig34JournalMatchesGolden(t *testing.T) {
	checkGolden(t, "fig34_tiny.journal.jsonl", runTinyFig34Journal(t, 0, 1))
}

// TestFig34JournalTileCountInvariant gates the routing figures' tiled
// runs — Figure 4 with the crash fault active — against the sequential
// golden.
func TestFig34JournalTileCountInvariant(t *testing.T) {
	for _, tiles := range []int{4, 16} {
		checkGolden(t, "fig34_tiny.journal.jsonl", runTinyFig34Journal(t, 0, tiles))
	}
}

func TestFig34JournalWorkerCountInvariant(t *testing.T) {
	for _, workers := range []int{1, 8} {
		checkGolden(t, "fig34_tiny.journal.jsonl", runTinyFig34Journal(t, workers, 1))
	}
}

// TestRoutingAblationsPinned pins the routing ablations, which journal
// nothing: each table's CSV plus the exact (%v) aggregates behind it,
// over two seeds so the cross-seed fold order is pinned too, and at 1
// and 4 tiles against the same golden.
func TestRoutingAblationsPinned(t *testing.T) {
	for _, tiles := range []int{1, 4} {
		cfg := tinyFig34()
		cfg.Seeds = []int64{1, 2}
		cfg.Tiles = tiles
		var buf bytes.Buffer
		abl2 := RunAbl2(cfg, []sim.Time{2e-3, 50e-3}, 3)
		fmt.Fprintf(&buf, "%s%v\n", Abl2Table(abl2).CSV(), abl2)
		abl4 := RunAbl4(cfg)
		fmt.Fprintf(&buf, "%s%v\n", Abl4Table(abl4).CSV(), abl4)
		abl5 := RunAbl5(cfg, []float64{0, 0.3}, 3)
		fmt.Fprintf(&buf, "%s%v\n", Abl5Table(abl5).CSV(), abl5)
		checkGolden(t, "abl_tiny.txt", buf.Bytes())
	}
}

// TestFig1EventCountPinned pins the package event counter that
// cmd/simbench divides by wall time: tiny Figure 1 must execute exactly
// this many kernel events.
func TestFig1EventCountPinned(t *testing.T) {
	ResetEventCount()
	RunFig1(tinyFig1())
	if got, want := EventCount(), uint64(96158); got != want {
		t.Fatalf("tiny fig1 executed %d events, want %d", got, want)
	}
}
