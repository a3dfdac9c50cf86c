// Command wmansim reproduces the paper's evaluation. Each experiment
// prints the series the corresponding figure plots, as an aligned table
// or CSV.
//
// Usage:
//
//	wmansim -exp fig1            # Figure 1 (SSAF vs counter-1 flooding)
//	wmansim -exp fig2            # Figure 2 (congestion avoidance per seed + mean, map of the first seed)
//	wmansim -exp fig3            # Figure 3 (Routeless vs AODV)
//	wmansim -exp fig4            # Figure 4 (… under node failures)
//	wmansim -exp abl1|abl2|abl3|abl4
//	wmansim -exp churn           # fault-plane churn study (-churn shorthand)
//	wmansim -exp mega            # million-node arena ladder (SSAF at Figure-1 density)
//	wmansim -mega                # shorthand: the single N=1,000,000 mega run
//	wmansim -exp all             # every figure except mega (it is a scale proof, not a figure)
//
// Scale selection:
//
//	-scale full    paper scale (500 nodes / 2000 m for routing; slow)
//	-scale small   reduced scale with the same density (default)
//
// Other flags: -seeds N (replications), -duration S, -workers N,
// -tiles N (intra-run PDES tiling for fig1/fig3/fig4/churn; fig2 and
// the ablation reruns stay sequential), -csv (machine-readable
// output), -width (fig2 map width), -journal F (append a JSONL run
// journal: per-run metric snapshots for the journaled figures plus one
// summary record per experiment with the table CSV, git revision, and
// wall time). Tiled runs are bitwise identical to sequential ones, so
// -tiles changes wall time, never output bytes.
//
// Unified scenario documents (the same format simserve accepts):
//
//	wmansim -scenario run.json -journal run.jsonl     # run one document
//	wmansim -scenario run.json -snapshot-at 5 -snapshot-out run.snap
//	wmansim -restore run.snap -journal tail.jsonl     # resume a checkpoint
//
// A -scenario run's journal bytes equal what simserve streams for the
// same document, and a -restore run appends exactly the records past
// the checkpoint — concatenating prefix and suffix reproduces the
// uninterrupted journal byte for byte.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"routeless/internal/experiments"
	"routeless/internal/metrics"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/snapshot"
	"routeless/internal/stats"
)

// gitRev stamps journal records with the checkout's short commit hash;
// it returns "" outside a git checkout (the field is then omitted).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	os.Exit(run())
}

// runScenario is the unified-document entry point: build a run from a
// scenario JSON file (or restore one from a snapshot document), journal
// it through the same code path simserve streams, and either checkpoint
// mid-flight or finish and print the paper-unit metrics as JSON. The
// journal bytes a finished -scenario run appends are identical to what
// simserve streams for the same document.
func runScenario(scenarioPath, restorePath string, snapAt float64, snapOut string, journal *metrics.Journal) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "wmansim:", err)
		return 2
	}
	var run *scenario.Run
	switch {
	case restorePath != "":
		f, err := os.Open(restorePath)
		if err != nil {
			return fail(err)
		}
		run, err = snapshot.Load(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	default:
		data, err := os.ReadFile(scenarioPath)
		if err != nil {
			return fail(err)
		}
		sc, err := scenario.Parse(data)
		if err != nil {
			return fail(err)
		}
		run, err = scenario.Build(sc)
		if err != nil {
			return fail(err)
		}
	}
	run.SetJournal(journal)

	if snapAt > 0 || snapOut != "" {
		if snapOut == "" || !(snapAt > 0) {
			return fail(fmt.Errorf("-snapshot-at and -snapshot-out must be used together"))
		}
		if err := run.AdvanceTo(sim.Time(snapAt)); err != nil {
			return fail(err)
		}
		f, err := os.Create(snapOut)
		if err != nil {
			return fail(err)
		}
		if err := snapshot.Save(f, run); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Printf("snapshot at t=%g written to %s\n", snapAt, snapOut)
		return 0
	}

	rm, ferr := run.Finish()
	out, err := json.Marshal(rm)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	if ferr != nil {
		fmt.Fprintln(os.Stderr, "wmansim: oracle:", ferr)
		return 1
	}
	return 0
}

func run() int {
	var (
		exp      = flag.String("exp", "all", "experiment: fig1|fig2|fig3|fig4|abl1|abl2|abl3|abl4|abl5|abl6|churn|mega|all")
		churn    = flag.Bool("churn", false, "shorthand for -exp churn")
		mega     = flag.Bool("mega", false, "shorthand for -exp mega at N=1,000,000 only")
		scale    = flag.String("scale", "small", "full (paper scale) or small (same density, faster)")
		seeds    = flag.Int("seeds", 3, "independent replications per point")
		duration = flag.Float64("duration", 0, "traffic seconds per run (0 = scale default)")
		workers  = flag.Int("workers", 0, "parallel runs (0 = GOMAXPROCS)")
		tiles    = flag.Int("tiles", 1, "PDES tiles per run for fig1/fig3/fig4/churn (1 = sequential kernel)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		width    = flag.Int("width", 76, "figure 2 map width in characters")
		journalF = flag.String("journal", "", "append a JSONL run journal to this file")

		scenarioF = flag.String("scenario", "", "run a single scenario document (JSON file) instead of an experiment")
		restoreF  = flag.String("restore", "", "resume a run from this snapshot document instead of building -scenario")
		snapAt    = flag.Float64("snapshot-at", 0, "with -scenario/-restore: pause at this sim time, write -snapshot-out, and exit")
		snapOut   = flag.String("snapshot-out", "", "snapshot output file for -snapshot-at")
	)
	flag.Parse()
	if *churn {
		*exp = "churn"
	}
	if *mega {
		*exp = "mega"
	}
	if *tiles < 1 {
		fmt.Fprintf(os.Stderr, "wmansim: -tiles must be >= 1 (got %d)\n", *tiles)
		return 2
	}

	var journal *metrics.Journal
	if *journalF != "" {
		f, err := os.OpenFile(*journalF, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wmansim:", err)
			return 2
		}
		defer f.Close()
		journal = metrics.NewJournal(f)
	}

	if *scenarioF != "" || *restoreF != "" {
		return runScenario(*scenarioF, *restoreF, *snapAt, *snapOut, journal)
	}

	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}

	full := *scale == "full"
	if !full && *scale != "small" {
		fmt.Fprintf(os.Stderr, "unknown -scale %q\n", *scale)
		return 2
	}

	// fig2's path collector shares state across the whole run, so it
	// stays on the sequential kernel regardless of -tiles.
	fig1 := experiments.Fig1Config{Seeds: seedList, Workers: *workers, Tiles: *tiles, Duration: *duration, Journal: journal}
	fig34 := experiments.Fig34Config{Seeds: seedList, Workers: *workers, Tiles: *tiles, Duration: *duration, Journal: journal}
	fig2 := experiments.Fig2Config{Workers: *workers}
	churnCfg := experiments.ChurnConfig{Seeds: seedList, Workers: *workers, Tiles: *tiles, Duration: *duration, Journal: journal}
	// Mega runs auto-size their PDES tiling from the arena (the point of
	// the study); an explicit -tiles above 1 overrides that, -tiles 1
	// keeps the default. Replications default to one — each x-axis point
	// is a whole arena, not a noisy sample.
	megaCfg := experiments.MegaConfig{Seeds: seedList[:1], Workers: *workers, Duration: *duration, Journal: journal}
	if *tiles > 1 {
		megaCfg.Tiles = *tiles
	}
	if *mega {
		megaCfg.Ns = []int{1_000_000}
	} else if full {
		megaCfg.Ns = []int{10_000, 100_000, 1_000_000}
	} else {
		megaCfg.Ns = []int{1_000, 10_000, 100_000}
	}
	if !full {
		// Same node density as the paper, quarter the area.
		fig1.Nodes, fig1.Terrain = 60, 800
		fig1.Connections = 20
		fig34.Nodes, fig34.Terrain = 200, 1265
		if fig34.Duration == 0 {
			fig34.Duration = 30
		}
		if fig1.Duration == 0 {
			fig1.Duration = 20
		}
		fig2.Nodes, fig2.Terrain = 300, 1500
		fig2.Duration = 30
		churnCfg.Nodes, churnCfg.Terrain = 150, 1100
		if churnCfg.Duration == 0 {
			churnCfg.Duration = 20
		}
	}

	show := func(t *stats.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t)
		}
	}

	rev := ""
	if journal != nil {
		rev = gitRev()
	}

	runExp := func(name string) bool {
		//lint:ignore wallclock wall-time of a whole experiment, measured outside the event loop
		start := time.Now()
		var tbl *stats.Table
		switch name {
		case "fig1":
			tbl = experiments.Fig1Table(experiments.RunFig1(fig1))
		case "fig2":
			// One run per seed: the center share is a per-topology
			// realization, so the table carries every seed and the mean;
			// the map shows the first seed.
			results := make([]experiments.Fig2Result, len(seedList))
			for i, seed := range seedList {
				cfg := fig2
				cfg.Seed = seed
				results[i] = experiments.RunFig2(cfg)
			}
			tbl = experiments.Fig2Table(results...)
			show(tbl)
			if !*csv {
				fmt.Println(experiments.Fig2Render(results[0], *width))
			}
		case "fig3":
			tbl = experiments.Fig3Table(experiments.RunFig3(fig34))
		case "fig4":
			tbl = experiments.Fig4Table(experiments.RunFig4(fig34))
		case "abl1":
			tbl = experiments.Abl1Table(experiments.RunAbl1(fig1))
		case "abl2":
			tbl = experiments.Abl2Table(experiments.RunAbl2(fig34, nil, 5))
		case "abl3":
			tbl = experiments.Abl3Table(experiments.RunAbl3(*workers, nil, 0, 10e-3, seedList[0]))
		case "abl4":
			tbl = experiments.Abl4Table(experiments.RunAbl4(fig34))
		case "abl5":
			tbl = experiments.Abl5Table(experiments.RunAbl5(fig34, nil, 5))
		case "abl6":
			tbl = experiments.Abl6Table(experiments.RunAbl6(fig34))
		case "churn":
			tbl = experiments.ChurnTable(experiments.RunChurn(churnCfg))
		case "mega":
			tbl = experiments.MegaTable(experiments.RunMega(megaCfg))
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			return false
		}
		if name != "fig2" { // fig2 already printed (it adds the map render)
			show(tbl)
		}
		if journal != nil {
			// The summary record carries the environment stamps; the
			// deterministic per-run records were written by the Run funcs.
			_ = journal.Write(metrics.Record{
				Experiment: name,
				Label:      "summary",
				TableCSV:   tbl.CSV(),
				GitRev:     rev,
				GoVersion:  runtime.Version(),
				//lint:ignore wallclock environment stamp on the journal, excluded from golden comparisons
				WallSeconds: time.Since(start).Seconds(),
			})
		}
		if !*csv {
			//lint:ignore wallclock reports elapsed wall time after the run's kernel has drained
			fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		return true
	}

	if *exp == "all" {
		for _, name := range []string{"fig1", "fig2", "fig3", "fig4", "abl1", "abl2", "abl3", "abl4", "abl5", "abl6", "churn"} {
			if !runExp(name) {
				return 2
			}
		}
	} else if !runExp(*exp) {
		return 2
	}
	if journal != nil {
		if err := journal.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "wmansim: journal:", err)
			return 1
		}
	}
	return 0
}
