package lint

import (
	"strings"
	"testing"
)

// flowProg caches the flowmod fixture program: one load serves every
// flow-level test.
var flowProg *Program

// flowmodProgram loads the self-contained fixture module under
// testdata/flowmod and builds its whole-program view.
func flowmodProgram(t *testing.T) *Program {
	t.Helper()
	if flowProg != nil {
		return flowProg
	}
	l, err := NewLoader("testdata/flowmod", "")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dirs, err := Walk("testdata/flowmod")
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	var units []*Unit
	for _, dir := range dirs {
		us, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		units = append(units, us...)
	}
	if len(units) == 0 {
		t.Fatal("flowmod fixture loaded no units")
	}
	flowProg = BuildProgram(units)
	return flowProg
}

// TestCallGraphTopology pins the structural facts of the flowmod call
// graph that the flow-aware rules depend on: edges, entry points,
// reachability, sink summaries, and provenance summaries.
func TestCallGraphTopology(t *testing.T) {
	prog := flowmodProgram(t)

	for _, id := range []FuncID{
		"flowmod/internal/proto.mapKeys",
		"flowmod/internal/proto.FlushBad",
		"flowmod/internal/proto.write",
		"flowmod/internal/proto.relay",
		"flowmod/internal/proto.(Listener).OnReceive",
		"flowmod/internal/proto.(Beacon).emit",
		"flowmod/internal/metrics.(Journal).Write",
		"flowmod/internal/metrics.(Gauge).Set",
		"flowmod/internal/sim.(Kernel).Schedule",
		"flowmod/internal/clean.sortedKeys",
	} {
		if prog.Funcs[id] == nil {
			t.Errorf("call graph is missing node %s", id)
		}
	}

	// One resolved caller edge: relay → write.
	callers := prog.Callers("flowmod/internal/proto.write")
	if len(callers) != 1 || callers[0] != "flowmod/internal/proto.relay" {
		t.Errorf("Callers(proto.write) = %v, want [flowmod/internal/proto.relay]", callers)
	}

	// Dispatch entry points: every handler-named concrete method.
	kinds := map[FuncID]string{}
	for _, ep := range prog.EntryPoints {
		kinds[ep.Fn] = ep.Kind
	}
	for _, want := range []FuncID{
		"flowmod/internal/proto.(Listener).OnReceive",
		"flowmod/internal/proto.(Meter).OnSent",
		"flowmod/internal/proto.(Beacon).OnDeliver",
	} {
		if kinds[want] != "dispatch" {
			t.Errorf("entry point %s: kind = %q, want dispatch", want, kinds[want])
		}
	}
	// Scheduled closures (Arm, Beacon.OnDeliver) register too.
	scheduled := 0
	for fn, kind := range kinds {
		if kind == "schedule" && strings.HasPrefix(string(fn), "closure@") {
			scheduled++
		}
	}
	if scheduled < 2 {
		t.Errorf("schedule closures registered = %d, want >= 2 (Arm, Beacon.OnDeliver)", scheduled)
	}

	// Handler reachability: the gauge write and the re-armed emit are
	// inside event context; a plain flush helper is not.
	reach := prog.HandlerReachable()
	if !reach["flowmod/internal/metrics.(Gauge).Set"] {
		t.Error("(Gauge).Set should be handler-reachable via Listener.OnReceive")
	}
	if !reach["flowmod/internal/proto.(Beacon).emit"] {
		t.Error("(Beacon).emit should be handler-reachable via the rescheduled closure")
	}
	if reach["flowmod/internal/proto.FlushBad"] {
		t.Error("FlushBad is never scheduled or dispatched; it must not be handler-reachable")
	}

	// An example chain proves the reachability claim and names the entry.
	path := prog.EntryPathTo("flowmod/internal/metrics.(Gauge).Set")
	if len(path) < 2 || !strings.Contains(path[0], "OnReceive") {
		t.Errorf("EntryPathTo((Gauge).Set) = %v, want a chain starting at OnReceive", path)
	}

	// Sink summaries cross function boundaries: relay reaches the
	// journal two hops deep; sortedKeys reaches nothing.
	if r := prog.SinkReach("flowmod/internal/proto.relay"); r&sinkJournal == 0 {
		t.Errorf("SinkReach(relay) = %s, want journal", r.Describe())
	}
	if r := prog.SinkReach("flowmod/internal/clean.sortedKeys"); r != 0 {
		t.Errorf("SinkReach(sortedKeys) = %s, want none", r.Describe())
	}

	// Map-order return summaries: unsorted collector taints, sorted
	// collector does not.
	if !prog.ReturnsMapOrdered("flowmod/internal/proto.mapKeys") {
		t.Error("ReturnsMapOrdered(mapKeys) = false, want true")
	}
	if prog.ReturnsMapOrdered("flowmod/internal/clean.sortedKeys") {
		t.Error("ReturnsMapOrdered(sortedKeys) = true, want false")
	}

	// The global write index feeds the shard-safety inventory.
	writers := prog.globalWriters["flowmod/internal/proto.hits"]
	found := false
	for _, w := range writers {
		if w == "flowmod/internal/proto.(Listener).OnReceive" {
			found = true
		}
	}
	if !found {
		t.Errorf("globalWriters[proto.hits] = %v, want to include (Listener).OnReceive", writers)
	}
}

// TestIDHasSuffix pins the segment-boundary matching that keeps ID
// patterns module-path agnostic.
func TestIDHasSuffix(t *testing.T) {
	cases := []struct {
		id      FuncID
		pattern string
		want    bool
	}{
		{"routeless/internal/sim.(Kernel).At", "internal/sim.(Kernel).At", true},
		{"flowmod/internal/sim.(Kernel).At", "internal/sim.(Kernel).At", true},
		{"myinternal/sim.(Kernel).At", "internal/sim.(Kernel).At", false},
		{"internal/sim.(Kernel).At", "internal/sim.(Kernel).At", true},
		{"routeless/internal/rng.New", "internal/rng.New", true},
		{"routeless/internal/rng.NewThing", "internal/rng.New", false},
	}
	for _, c := range cases {
		if got := idHasSuffix(c.id, c.pattern); got != c.want {
			t.Errorf("idHasSuffix(%q, %q) = %v, want %v", c.id, c.pattern, got, c.want)
		}
	}
	if got := shortID("flowmod/internal/proto.(Listener).OnReceive"); got != "proto.(Listener).OnReceive" {
		t.Errorf("shortID = %q", got)
	}
}

// TestFlowmodFindings runs the full rule set over the fixture module
// and pins every finding: each one is a violation the syntactic
// predecessors could not see, and each clean shape stays clean.
func TestFlowmodFindings(t *testing.T) {
	prog := flowmodProgram(t)
	res := Analyze(prog, All())

	want := []struct {
		rule string
		sub  string
	}{
		{"globalrand", "constructed from a fixed seed"},                     // fault.stream's raw ctor
		{"faultrand", "fixed-seed stream"},                                  // fault.Jitter's laundered draw
		{"goroutine", `import "sync"`},                                      // pdes.Run, no longer exempt
		{"goroutine", "go statement"},                                       // pdes.Run's own tile goroutines
		{"maporder", "map-iteration order by proto.mapKeys"},                // FlushBad's slice range
		{"maporder", "calls relay, which reaches"},                          // JournalBad, two hops to the journal
		{"globalrand", "supplies a fixed seed"},                             // BadJitter through mkStream
		{"sharedstate", "package-level var flowmod/internal/proto.hits"},    // OnReceive write
		{"sharedstate", "package-level var flowmod/internal/proto.pending"}, // scheduled-closure write
		{"goroutine", "go statement"},                                       // SpawnBad, outside the worker pool
	}

	if len(res.Diags) != len(want) {
		for _, d := range res.Diags {
			t.Logf("finding: %s", d)
		}
		t.Fatalf("findings = %d, want %d", len(res.Diags), len(want))
	}
	for i, w := range want {
		d := res.Diags[i]
		if d.Rule != w.rule || !strings.Contains(d.Message, w.sub) {
			t.Errorf("finding %d = %s: %s: %s\n  want rule %s containing %q", i, d.Pos, d.Rule, d.Message, w.rule, w.sub)
		}
	}
	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the deliveries counter)", res.Suppressed)
	}
	if len(res.Stale) != 0 {
		t.Errorf("stale directives = %v, want none", res.Stale)
	}
}

// TestShardReportFlowmod pins the machine-readable shard-safety report
// over the fixture module.
func TestShardReportFlowmod(t *testing.T) {
	prog := flowmodProgram(t)
	rep := BuildShardReport(prog)

	if rep.Schema != "shardsafety/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if len(rep.EntryPoints) == 0 {
		t.Fatal("report has no entry points")
	}

	globals := map[string]ShardGlobal{}
	for _, g := range rep.Globals {
		globals[g.Var] = g
	}
	hits, ok := globals["flowmod/internal/proto.hits"]
	if !ok {
		t.Fatal("report is missing global proto.hits")
	}
	if hits.Class != "mutable" || !hits.HandlerWrites {
		t.Errorf("proto.hits: class=%q handlerWrites=%v, want mutable/true", hits.Class, hits.HandlerWrites)
	}
	if len(hits.Via) == 0 || !strings.Contains(hits.Via[0], "OnReceive") {
		t.Errorf("proto.hits via = %v, want a chain from OnReceive", hits.Via)
	}
	// A suppressed diagnostic is still inventory: the report must not
	// hide state the directive merely excused.
	deliveries, ok := globals["flowmod/internal/proto.deliveries"]
	if !ok {
		t.Fatal("report is missing global proto.deliveries (suppressed writes still inventory)")
	}
	if deliveries.Class != "mutable" || !deliveries.HandlerWrites {
		t.Errorf("proto.deliveries: class=%q handlerWrites=%v, want mutable/true", deliveries.Class, deliveries.HandlerWrites)
	}

	// The hard-gate view sees through suppressions: both hits (diagnosed)
	// and deliveries (its write excused by //lint:ignore) must surface.
	violations := rep.Violations()
	for _, want := range []string{"proto.hits", "proto.deliveries"} {
		found := false
		for _, v := range violations {
			if strings.Contains(v, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("Violations() = %v, want an entry for %s", violations, want)
		}
	}

	var kernel *ShardSingleton
	for i := range rep.Singletons {
		if rep.Singletons[i].Type == "flowmod/internal/sim.(Kernel)" {
			kernel = &rep.Singletons[i]
		}
	}
	if kernel == nil {
		t.Fatal("report is missing singleton flowmod/internal/sim.(Kernel)")
	}
	found := false
	for _, m := range kernel.Methods {
		if m == "Schedule" {
			found = true
		}
	}
	if !found {
		t.Errorf("Kernel singleton methods = %v, want to include Schedule", kernel.Methods)
	}
}

// TestModuleCorpus runs the full flow-aware rule set over the real
// module, pinning the current clean state: zero findings, zero stale
// directives, and the exact count of reasoned suppressions. A change
// that introduces a finding, orphans a directive, or adds an
// unreviewed suppression moves these numbers and fails here before CI.
func TestModuleCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type check is slow")
	}
	l := fixtureLoader(t)
	dirs, err := Walk("../..")
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	var units []*Unit
	for _, dir := range dirs {
		us, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		units = append(units, us...)
	}
	prog := BuildProgram(units)
	res := Analyze(prog, All())

	for _, d := range res.Diags {
		t.Errorf("unexpected finding: %s", d)
	}
	for _, s := range res.Stale {
		t.Errorf("stale directive: %s", s)
	}
	if res.Suppressed != 15 {
		t.Errorf("suppressed findings = %d, want 15; if a suppression was added or removed deliberately, update this pin", res.Suppressed)
	}

	rep := BuildShardReport(prog)
	if rep.Schema != "shardsafety/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if len(rep.EntryPoints) == 0 {
		t.Error("shard report has no entry points; entry-point detection regressed")
	}
	haveKernel := false
	for _, s := range rep.Singletons {
		if s.Type == "routeless/internal/sim.(Kernel)" {
			haveKernel = true
		}
	}
	if !haveKernel {
		t.Error("shard report is missing the sim.Kernel singleton")
	}
	for _, g := range rep.Globals {
		if g.Var == "routeless/internal/experiments.processed" && g.Class != "atomic" {
			t.Errorf("experiments.processed class = %q, want atomic", g.Class)
		}
		// The go/no-go gate for the PDES tile decomposition: no
		// package-level mutable state may be written from handler
		// context anywhere in the module.
		if g.Class == "mutable" && g.HandlerWrites {
			t.Errorf("shard blocker: %s is mutable and handler-written (via %v)", g.Var, g.Via)
		}
	}
	// Same gate through the method cmd/simlint -audit calls.
	if v := rep.Violations(); len(v) != 0 {
		t.Errorf("ShardReport.Violations() = %v, want none", v)
	}

	// The tile-state section must resolve every curated field against
	// the real module — a "stale" row means the list rotted — and must
	// cover the SoA arrays the mega-scale refactor hoisted onto the
	// channel.
	tileRows := map[string]ShardTileField{}
	for _, f := range rep.TileState {
		tileRows[f.Type+"."+f.Field] = f
		if f.Class != "per-tile" {
			t.Errorf("tile-state %s.%s class = %q, want per-tile", f.Type, f.Field, f.Class)
		}
	}
	for _, want := range []string{
		"internal/phy.(Channel).states",
		"internal/phy.(Channel).txPow",
		"internal/phy.(Channel).energies",
		"internal/phy.(Channel).links",
		"internal/phy.(Channel).linkValid",
		"internal/phy.(tileCtx).outbox",
		"internal/phy.(tileCtx).cached",
	} {
		f, ok := tileRows[want]
		if !ok {
			t.Errorf("tile-state section is missing %s", want)
			continue
		}
		if f.FieldType == "" || f.Rationale == "" || f.Pos == "" {
			t.Errorf("tile-state %s lacks fieldType/rationale/pos: %+v", want, f)
		}
	}
}

// TestTileStateSection pins the curated tile-state classifier against
// the flowmod fixture: a field that exists resolves to "per-tile" with
// its type and position, a curated name the struct no longer has
// becomes a "stale" row that Violations() turns into a gate failure,
// and entries for packages outside the run are skipped silently.
func TestTileStateSection(t *testing.T) {
	prog := flowmodProgram(t)
	old := tileStateFields
	defer func() { tileStateFields = old }()
	tileStateFields = []tileStateSpec{
		{Type: "internal/sim.(Kernel)", Fields: []string{"queue", "vanished"}, Rationale: "fixture"},
		{Type: "internal/phy.(Channel)", Fields: []string{"states"}}, // package not loaded: skipped
		{Type: "not-a-pattern", Fields: []string{"x"}},               // malformed: skipped
	}

	rep := BuildShardReport(prog)
	if len(rep.TileState) != 2 {
		t.Fatalf("tileState rows = %d, want 2 (unloaded package and malformed pattern skipped): %+v",
			len(rep.TileState), rep.TileState)
	}
	live, stale := rep.TileState[0], rep.TileState[1]
	if live.Field != "queue" || live.Class != "per-tile" {
		t.Errorf("row 0 = %+v, want queue classified per-tile", live)
	}
	if live.FieldType != "[]func()" || live.Rationale != "fixture" || live.Pos == "" {
		t.Errorf("queue row lacks resolved metadata: %+v", live)
	}
	if stale.Field != "vanished" || stale.Class != "stale" {
		t.Errorf("row 1 = %+v, want vanished classified stale", stale)
	}

	found := false
	for _, v := range rep.Violations() {
		if strings.Contains(v, "vanished") {
			found = true
		}
	}
	if !found {
		t.Errorf("Violations() = %v, want a stale-entry line for vanished", rep.Violations())
	}
}
