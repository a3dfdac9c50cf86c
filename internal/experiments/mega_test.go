package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"routeless/internal/metrics"
)

// tinyMega shrinks fig_mega to golden scale: same density and flow
// shape as the real study, arenas of 64 and 128 nodes. Tiles stays at
// the AutoTiles default — the invariance tests below pin that explicit
// tile and worker counts reproduce the same bytes.
func tinyMega() MegaConfig {
	return MegaConfig{
		Ns:       []int{64, 128},
		Flows:    2,
		Duration: 6,
		Seeds:    []int64{1},
	}
}

func runTinyMegaJournal(t *testing.T, mutate func(*MegaConfig)) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg := tinyMega()
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.Journal = metrics.NewJournal(&buf)
	RunMega(cfg)
	if err := cfg.Journal.Err(); err != nil {
		t.Fatalf("journal write failed: %v", err)
	}
	return buf.Bytes()
}

func TestMegaJournalSameSeedBitwiseIdentical(t *testing.T) {
	a := runTinyMegaJournal(t, nil)
	b := runTinyMegaJournal(t, nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different journals:\nrun1: %s\nrun2: %s", a, b)
	}
}

// TestMegaJournalTileCountInvariant pins the study's core claim at
// golden scale: the auto-tiled mega data plane produces the same bytes
// as the sequential kernel and as any explicit tiling.
func TestMegaJournalTileCountInvariant(t *testing.T) {
	j1 := runTinyMegaJournal(t, func(c *MegaConfig) { c.Tiles = 1 })
	for _, tiles := range []int{4, 16} {
		tiles := tiles
		jt := runTinyMegaJournal(t, func(c *MegaConfig) { c.Tiles = tiles })
		if !bytes.Equal(j1, jt) {
			t.Fatalf("tiles=%d changed journal bytes:\ntiles=1: %s\ntiles=%d: %s", tiles, j1, tiles, jt)
		}
	}
}

// TestMegaJournalWorkerCountInvariant covers both pool sizes: the
// sweep's cross-run parallelism (Workers) and the PDES per-run tile
// pool, which is sized from GOMAXPROCS.
func TestMegaJournalWorkerCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	j1 := runTinyMegaJournal(t, func(c *MegaConfig) { c.Workers = 1 })
	runtime.GOMAXPROCS(8)
	j8 := runTinyMegaJournal(t, func(c *MegaConfig) { c.Workers = 8 })
	if !bytes.Equal(j1, j8) {
		t.Fatalf("worker counts changed journal bytes:\nworkers=1: %s\nworkers=8: %s", j1, j8)
	}
}

// TestMegaJournalLinkCacheCapInvariant pins the bounded link cache's
// contract end to end: eviction changes memory and rebuild counts,
// never results. Cap 1 forces a rebuild on nearly every transmission.
func TestMegaJournalLinkCacheCapInvariant(t *testing.T) {
	unbounded := runTinyMegaJournal(t, func(c *MegaConfig) { c.LinkCacheCap = -1 })
	capped := runTinyMegaJournal(t, func(c *MegaConfig) { c.LinkCacheCap = 1 })
	if !bytes.Equal(unbounded, capped) {
		t.Fatalf("link-cache cap changed journal bytes:\nunbounded: %s\ncap=1: %s", unbounded, capped)
	}
}

func TestMegaJournalMatchesGolden(t *testing.T) {
	checkGolden(t, "fig_mega_tiny.journal.jsonl", runTinyMegaJournal(t, nil))
}
