// Command perfbench is the repository's benchmark. It generates scenario
// documents from a workload seed and runs them through the public run
// API — scenario.Build, Run.AdvanceTo in chunks, Run.Finish — or, for
// the serve workload, through an in-process simserve handler, timing
// only those calls from outside. It checks every output, and prints one
// JSON result line last on stdout.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload flood_fig1 --seed 1 --seconds 38 --trace 0
//
// --trace 0 reports the end-to-end metrics BENCHMARK.json lists;
// --trace 1 splits the time into an untraced and a traced window and
// reports the per-layer metrics: deterministic counts, CPU shares from
// a pprof profile bucketed by layer, and the tracing overhead. Spans,
// the profile and a full report with the machine block are written
// under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// main runs the program on one P. On a box of a few cores shared with
// other tenants, a second P measured the scheduler as much as the
// program: idle Ps spinning between hand-offs charge CPU time that
// varies from pass to pass.
func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: every document is generated from it")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	outDir := fs.String("out", ".bench_build/out", "directory for the report, spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceMode)
		return 2
	}
	rep, err := execute(w, *seed, *seconds, *traceMode == 1, *outDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	machine, _ := json.Marshal(map[string]any{"machine": rep.Machine})
	fmt.Fprintln(stdout, string(machine))
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full record written under -out.
type report struct {
	Machine     machineInfo            `json:"machine"`
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Windows     map[string]windowInfo  `json:"windows"`
	Failures    []string               `json:"failures,omitempty"`
	SpanSummary map[string]spanSummary `json:"span_summary,omitempty"`
	// DocumentEvents is each document's kernel event count: the
	// deterministic work behind every timing.
	DocumentEvents []float64 `json:"document_events"`
	Result         result    `json:"result"`
}

// windowInfo records how much each window measured, so a reader can
// check the sample count behind every median and percentile.
type windowInfo struct {
	Passes       int       `json:"passes"`
	PassS        []float64 `json:"pass_s"`
	PassWall     []float64 `json:"pass_wall_s"`
	HostProbeS   []float64 `json:"host_probe_s"`
	ElapsedS     float64   `json:"elapsed_s"`
	Builds       int       `json:"builds"`
	Sessions     int       `json:"sessions,omitempty"`
	PassPeakHeap []float64 `json:"pass_peak_heap_mb"`
}

func info(w *window) windowInfo {
	return windowInfo{Passes: w.passes, PassS: w.passS, PassWall: w.passWall, HostProbeS: w.hostS, ElapsedS: w.elapsedS, Builds: len(w.buildS), Sessions: len(w.sessionS), PassPeakHeap: w.heap.peaks}
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// minPasses keeps at least two samples behind every median.
const minPasses = 2

// minSessions keeps the serve percentiles at p90 with at least ten
// samples beyond it; maxOverrun bounds how far past --seconds a window
// may run to reach it.
const (
	minSessions = 100
	maxOverrun  = 3
)

func execute(wl workload, seed int64, seconds float64, traced bool, outDir string) (*report, error) {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	led, err := loadLedger()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := initProbe(); err != nil {
		return nil, err
	}
	docs, err := wl.docs(seed)
	if err != nil {
		return nil, err
	}
	tally := &tally{}
	setup := &window{heap: newHeapProbe()}
	var run runner
	if wl.serve {
		run, err = newServeRunner(docs, tally, setup)
		if err != nil {
			return nil, err
		}
	} else {
		run = newBatchRunner(docs, tally)
	}
	// One untimed pass first: it records every document's reference
	// outcome and lets the heap reach its steady size. Timed, the first
	// pass read about 7% slower than the rest on batch workloads and 8%
	// faster on serve_checkpoint.
	run.pass(&window{heap: newHeapProbe()}, untraced)

	rep := &report{Machine: machine(), Workload: wl.name, Seed: seed, Seconds: seconds, Trace: traced,
		Windows: map[string]windowInfo{}}
	values := map[string]float64{}
	if !traced {
		w := measure(run, seconds, untraced)
		rep.Windows["untraced"] = info(w)
		builds := w.buildS
		if wl.serve {
			builds = setup.buildS
			w.retained = setup.retained
		}
		values["run_s"] = median(scaled(w.passS, w.hostS))
		values["setup_s"] = median(builds) * probeNominalS / median(w.hostS)
		values["peak_heap_mb"] = median(w.heap.peaks)
		values["retained_bytes_per_node"] = median(w.retained)
		rep.Result.Metrics, err = pick(values, spec.EndToEnd)
	} else {
		base := fmt.Sprintf("%s-seed%d", wl.name, seed)
		u := measure(run, seconds/2, untraced)
		rep.Windows["untraced"] = info(u)
		tr := newTracer()
		var shares map[string]float64
		var t *window
		shares, t, err = profiled(led, filepath.Join(outDir, base+".pprof"), func() *window {
			return measure(run, seconds/2, tr)
		})
		if err != nil {
			return nil, err
		}
		rep.Windows["traced"] = info(t)
		if err := tr.writeSpans(filepath.Join(outDir, base+"-spans.jsonl")); err != nil {
			return nil, err
		}
		rep.SpanSummary = tr.summary()
		if wl.serve {
			u.buildS, u.finishS = setup.buildS, setup.finishS
		}
		layerValues(values, run.counts(), u, t, shares)
		values["error_rate"] = tally.errorRate()
		rep.Result.Metrics, err = pick(values, spec.PerLayer)
	}
	if err != nil {
		return nil, err
	}
	rep.Result.Attempted, rep.Result.Failed = tally.attempted, tally.failed
	rep.Result.Correct = tally.attempted > 0 && tally.failed == 0
	rep.Failures = tally.reasons
	rep.DocumentEvents = run.counts().docEvents

	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return nil, err
	}
	mode := 0
	if traced {
		mode = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", wl.name, seed, mode)
	if err := os.WriteFile(filepath.Join(outDir, name), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// measure runs passes for about the given seconds: it starts another
// pass only while the previous pass's duration still fits, and always
// runs at least minPasses (and, for serve, enough sessions for a p90).
func measure(r runner, seconds float64, tr *tracer) *window {
	w := &window{heap: newHeapProbe()}
	before := readRuntime()
	start := time.Now()
	for {
		t0 := time.Now()
		r.pass(w, tr)
		w.heap.endPass()
		w.passes++
		last := time.Since(t0).Seconds()
		elapsed := time.Since(start).Seconds()
		enough := w.passes >= minPasses && elapsed+last > seconds
		if _, serve := r.(*serveRunner); serve && len(w.sessionS) < minSessions && elapsed < maxOverrun*seconds {
			enough = false
		}
		if enough {
			break
		}
	}
	w.elapsedS = time.Since(start).Seconds()
	w.rt = readRuntime().delta(before)
	return w
}

// scaled converts each pass's CPU seconds to seconds on the reference
// box, by the host probes taken during that same pass.
func scaled(passS, hostS []float64) []float64 {
	out := make([]float64, len(passS))
	for i, s := range passS {
		out[i] = s * probeNominalS / hostS[i]
	}
	return out
}

// layerValues computes every per-layer metric: counts from the first
// pass, rates and latencies from the untraced window u, CPU shares from
// the traced window t's profile.
func layerValues(v map[string]float64, pc passCounts, u, t *window, shares map[string]float64) {
	c := pc.counters
	runS := median(u.passS)
	events := pc.events
	v["sim.events"] = events
	v["sim.events_per_sec"] = ratio(events, runS)
	v["sim.queue_peak"] = pc.queuePeak

	for layer, s := range shares {
		v[layer+".cpu_share"] = s
	}
	v["gc.rt_share"] = ratio(t.rt[rtGCCPU], t.rt[rtUserCPU]+t.rt[rtGCCPU]+t.rt[rtScavengeCPU])
	v["gc.cycles"] = ratio(t.rt[rtGCCycles], float64(t.passes))
	v["alloc.per_event"] = ratio(u.rt[rtAllocObjects], events*float64(u.passes))
	v["alloc.bytes_per_event"] = ratio(u.rt[rtAllocBytes], events*float64(u.passes))

	v["phy.signal_starts"] = c["phy.signal_starts"]
	v["phy.rx_frames"] = c["phy.rx_frames"]
	v["phy.decode_ratio"] = ratio(c["phy.rx_frames"], c["phy.signal_starts"])
	v["phy.collisions"] = c["phy.collisions"]

	v["mac.tx_frames"] = c["mac.tx_frames"]
	v["mac.retries"] = c["mac.retries"]
	v["mac.retry_ratio"] = ratio(c["mac.retries"], c["mac.tx_frames"])
	v["mac.dropped_full"] = c["mac.dropped_full"]

	v["flood.forwards"] = c["flood.forwards"]
	v["flood.cancelled"] = c["flood.cancelled"]
	v["flood.suppress_ratio"] = ratio(c["flood.cancelled"], c["flood.cancelled"]+c["flood.forwards"])
	cancels := c["flood.cancelled"] + c["rr.cancelled_by_overhear"] + c["rr.cancelled_by_ack"] + c["rr.discovery_cancelled"]
	v["election.cancels"] = cancels
	v["election.syncs"] = cancels + c["flood.forwards"] + c["rr.relays"] + c["rr.discovery_forwards"]

	v["rr.relays"] = c["rr.relays"]
	v["rr.cancelled_by_overhear"] = c["rr.cancelled_by_overhear"]
	v["aodv.rreq_forwarded"] = c["aodv.rreq_forwarded"]
	v["routing.delivery_ratio"] = ratio(c["rr.data_delivered"]+c["aodv.data_delivered"], c["rr.data_sent"]+c["aodv.data_sent"])
	v["fault.jam_hits"] = c["fault.jam_hits"]
	v["fault.crashes"] = c["fault.crashes"]

	v["scenario.build_s"] = median(u.buildS)
	v["metrics.finish_s"] = median(u.finishS)
	v["metrics.journal_bytes"] = pc.journalBytes
	v["snapshot.bytes"] = pc.snapshotBytes
	v["snapshot.p50_s"] = percentile(u.snapshotS, 0.5)
	v["snapshot.p90_s"] = percentile(u.snapshotS, 0.9)
	v["serve.create_ms"] = 1e3 * percentile(u.createS, 0.5)
	v["serve.first_byte_ms"] = 1e3 * percentile(u.firstByteS, 0.5)
	v["serve.resume_ms"] = 1e3 * percentile(u.resumeS, 0.5)
	v["serve.sessions_per_sec"] = ratio(float64(len(u.sessionS)), u.elapsedS)
	v["serve.session_p50_s"] = percentile(u.sessionS, 0.5)
	v["serve.session_p90_s"] = percentile(u.sessionS, 0.9)

	v["trace.overhead"] = ratio(median(t.passS), runS)
	v["host.probe_ms"] = 1e3 * median(u.hostS)
}

// pick returns exactly the metrics the spec lists, with their units.
func pick(values map[string]float64, want []specMetric) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(want))
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is listed in the spec but not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is not finite", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}
