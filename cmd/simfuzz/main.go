// Command simfuzz runs the conservation-law scenario fuzzer
// (internal/fuzz): generated simulation scenarios executed under the
// oracle — every conservation law checked after an experiment-style
// collect, plus a same-seed bitwise re-run — with failing scenarios
// shrunk to minimal reproducers and written as replayable JSON
// fixtures.
//
// Bounded CI mode (deterministic — the same range always yields the
// identical verdict list):
//
//	simfuzz -seeds 1:300
//
// Unbounded soak mode (runs seeds from the range start until the
// wall-clock budget is spent):
//
//	simfuzz -seeds 1000: -budget 600
//
// Replay a committed fixture:
//
//	simfuzz -replay internal/fuzz/testdata/drain_negative_period.json
//
// Checkpoint cross-check mode (-snapshot) additionally runs every
// scenario through the snapshot/restore oracle: run to the midpoint,
// save, restore (replay-verified), finish, and compare final metrics
// bitwise against the uninterrupted run:
//
//	simfuzz -seeds 1:50 -snapshot
//
// Other flags: -out DIR (where failing fixtures land, default
// fuzz-failures), -shrink N (reducer evaluation budget per failure;
// 0 disables shrinking), -v (print passing seeds too).
//
// Exit status: 0 all scenarios passed (invalid-scenario generated
// seeds count as skips), 1 at least one simulator bug found, 2 usage
// or I/O error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"routeless/internal/fuzz"
	"routeless/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// parseSeeds parses "A:B" (inclusive bounded range) or "A:" (unbounded,
// soak mode only).
func parseSeeds(s string) (lo, hi int64, unbounded bool, err error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, false, fmt.Errorf("-seeds wants A:B or A:, got %q", s)
	}
	lo, err = strconv.ParseInt(a, 10, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("-seeds start: %w", err)
	}
	if b == "" {
		return lo, 0, true, nil
	}
	hi, err = strconv.ParseInt(b, 10, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("-seeds end: %w", err)
	}
	if hi < lo {
		return 0, 0, false, fmt.Errorf("-seeds range %d:%d is empty", lo, hi)
	}
	return lo, hi, false, nil
}

func run(args []string) int {
	fs := flag.NewFlagSet("simfuzz", flag.ContinueOnError)
	var (
		seeds   = fs.String("seeds", "1:100", "seed range A:B (inclusive), or A: with -budget")
		budget  = fs.Float64("budget", 0, "soak mode: wall-clock seconds to keep drawing seeds (requires -seeds A:)")
		replay  = fs.String("replay", "", "replay one fixture file instead of generating scenarios")
		out     = fs.String("out", "fuzz-failures", "directory for failing-scenario fixtures")
		shrink  = fs.Int("shrink", 200, "shrinker evaluation budget per failure (0 = no shrinking)")
		verbose = fs.Bool("v", false, "print every seed's verdict, not just failures")
		maxN    = fs.Int("maxn", 0, "generator cap on node count (0 = default)")
		maxDur  = fs.Float64("maxdur", 0, "generator cap on traffic seconds (0 = default)")
		snapCk  = fs.Bool("snapshot", false, "checkpoint cross-check: also run each scenario as run-to-midpoint, save, restore, finish, and demand bitwise-identical final metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var runner fuzz.Runner
	exec := runner.Run
	if *snapCk {
		exec = runner.RunSnapshot
	}

	if *replay != "" {
		fx, err := fuzz.LoadFixture(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simfuzz:", err)
			return 2
		}
		res := exec(fx.Scenario)
		fmt.Printf("replay %s: verdict=%s", *replay, res.Verdict)
		if res.Detail != "" {
			fmt.Printf(" detail=%s", firstLine(res.Detail))
		}
		fmt.Println()
		if res.Failed() {
			return 1
		}
		return 0
	}

	lo, hi, unbounded, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simfuzz:", err)
		return 2
	}
	if unbounded && *budget <= 0 {
		fmt.Fprintln(os.Stderr, "simfuzz: unbounded -seeds A: requires -budget")
		return 2
	}

	lim := fuzz.Limits{MaxN: *maxN, MaxDuration: *maxDur}
	var deadline time.Time
	if *budget > 0 {
		//lint:ignore wallclock soak budget is a harness stop condition, outside any simulation
		deadline = time.Now().Add(time.Duration(*budget * float64(time.Second)))
	}

	var pass, skip, fail int
	for seed := lo; ; seed++ {
		if unbounded {
			//lint:ignore wallclock soak budget is a harness stop condition, outside any simulation
			if !deadline.IsZero() && time.Now().After(deadline) {
				break
			}
		} else if seed > hi {
			break
		} else if !deadline.IsZero() {
			//lint:ignore wallclock soak budget is a harness stop condition, outside any simulation
			if time.Now().After(deadline) {
				fmt.Printf("budget spent at seed %d of %d:%d\n", seed, lo, hi)
				break
			}
		}

		sc := fuzz.Generate(seed, lim)
		res := exec(sc)
		switch {
		case res.Verdict == fuzz.VerdictPass:
			pass++
			if *verbose {
				fmt.Printf("seed=%d verdict=%s\n", seed, res.Verdict)
			}
		case res.Verdict == fuzz.VerdictInvalid:
			// A generated scenario the builder refused (typically an
			// unconnectable placement): a skip, not a bug.
			skip++
			if *verbose {
				fmt.Printf("seed=%d verdict=%s detail=%s\n", seed, res.Verdict, firstLine(res.Detail))
			}
		default:
			fail++
			fmt.Printf("seed=%d verdict=%s detail=%s\n", seed, res.Verdict, firstLine(res.Detail))
			if err := saveFailure(exec, *out, seed, sc, res, *shrink); err != nil {
				fmt.Fprintln(os.Stderr, "simfuzz:", err)
				return 2
			}
		}
	}

	fmt.Printf("simfuzz: %d pass, %d skip, %d fail\n", pass, skip, fail)
	if fail > 0 {
		return 1
	}
	return 0
}

// saveFailure shrinks the failing scenario (keeping the same verdict
// class as the reduction target, under the same oracle mode that found
// it) and writes the fixture.
func saveFailure(exec func(scenario.Scenario) fuzz.Result, dir string, seed int64, sc scenario.Scenario, res fuzz.Result, shrinkEvals int) error {
	min := sc
	if shrinkEvals > 0 {
		var evals int
		min, evals = fuzz.Shrink(sc, func(cand scenario.Scenario) bool {
			return exec(cand).Verdict == res.Verdict
		}, shrinkEvals)
		fmt.Printf("seed=%d shrunk N=%d→%d duration=%g→%g flows=%d→%d faults=%d→%d (%d evals)\n",
			seed, sc.N, min.N, sc.Duration, min.Duration,
			len(sc.Flows), len(min.Flows), len(sc.Faults), len(min.Faults), evals)
	}
	fx := fuzz.Fixture{
		Scenario: min,
		Verdict:  res.Verdict,
		Detail:   firstLine(res.Detail),
		Note:     fmt.Sprintf("found by simfuzz seed %d", seed),
	}
	b, err := fx.Encode()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("seed_%d_%s.json", seed, res.Verdict))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("seed=%d fixture written to %s\n", seed, path)
	return nil
}

// firstLine trims a multi-line detail (panic stacks) to its head.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
