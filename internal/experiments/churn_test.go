package experiments

import (
	"bytes"
	"testing"

	"routeless/internal/metrics"
)

// tinyChurn is the CI-scale churn study: one nonzero intensity, one
// seed, a field small enough to run in seconds but dense enough that
// the composite fault plan (crash + degrade + jam) actually fires.
func tinyChurn() ChurnConfig {
	return ChurnConfig{
		Nodes:       30,
		Terrain:     565,
		Duration:    5,
		Pairs:       3,
		Seeds:       []int64{1},
		Intensities: []float64{0.15},
	}
}

func runTinyChurnJournal(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg := tinyChurn()
	cfg.Workers = workers
	cfg.Journal = metrics.NewJournal(&buf)
	RunChurn(cfg)
	if err := cfg.Journal.Err(); err != nil {
		t.Fatalf("journal write failed: %v", err)
	}
	return buf.Bytes()
}

// TestChurnJournalWorkerCountInvariant extends the determinism promise
// to runs with the fault plane active: every fault stream derives from
// the run seed, so journal bytes cannot depend on sweep scheduling.
func TestChurnJournalWorkerCountInvariant(t *testing.T) {
	j1 := runTinyChurnJournal(t, 1)
	j8 := runTinyChurnJournal(t, 8)
	if !bytes.Equal(j1, j8) {
		t.Fatalf("worker count changed churn journal bytes:\nworkers=1: %s\nworkers=8: %s", j1, j8)
	}
}

func TestChurnJournalMatchesGolden(t *testing.T) {
	checkGolden(t, "churn_tiny.journal.jsonl", runTinyChurnJournal(t, 0))
}
