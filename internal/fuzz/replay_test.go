package fuzz

import (
	"path/filepath"
	"testing"
)

// TestReplayCommittedFixtures replays every fixture the fuzzer ever
// minimized into testdata/. Each file is a simulator bug that was
// fixed in the commit that added it — at capture time the scenario
// produced the verdict recorded in the fixture (an invariant
// violation), and post-fix it must pass the full oracle. A regression
// reopens as a plain test failure naming the fixture.
//
//   - crash_shared_state.json: FailureProcess keyed its phase machine
//     off shared node.Up() state; a battery drain failing the node
//     mid-phase made the process accrue downtime from a downSince it
//     never set (downtime 1324 s in a 6.5 s run).
//   - crash_double_count.json: two crash specs in one plan legitimately
//     accrue up to sim-time each per node, but the fault-downtime bound
//     multiplied by the node count instead of the crash-process count.
//     Re-derived from the seed-78 capture with off fractions summing
//     above 1, so it reaches the bound without depending on the draws
//     of the per-node failure streams.
func TestReplayCommittedFixtures(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected at least the two committed bug fixtures, found %v", paths)
	}
	var r Runner
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			fx, err := LoadFixture(path)
			if err != nil {
				t.Fatal(err)
			}
			// Fixtures capture failing verdicts by construction.
			if fx.Verdict == VerdictPass || fx.Verdict == VerdictInvalid {
				t.Fatalf("fixture records non-failing verdict %q", fx.Verdict)
			}
			res := r.Run(fx.Scenario)
			if res.Verdict != VerdictPass {
				t.Fatalf("fixed bug regressed: verdict=%s detail=%s\nfixture note: %s",
					res.Verdict, res.Detail, fx.Note)
			}
		})
	}
}
