package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

// TestLedgerMatchesSpec keeps ledger.json and BENCHMARK.json in step:
// the same metrics in the same order, every per-layer metric names the
// end-to-end metric and workloads it should move, and every layer has a
// CPU-share metric.
func TestLedgerMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		benchSpec
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	led, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []specMetric) (out []string) {
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	docNames := func(ms []metricDoc) (out []string) {
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got, want := docNames(led.EndToEnd), names(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("ledger end_to_end %v != BENCHMARK.json %v", got, want)
	}
	if got, want := docNames(led.PerLayer), names(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("ledger per_layer %v != BENCHMARK.json %v", got, want)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	e2e := names(spec.EndToEnd)
	for _, m := range led.PerLayer {
		for _, tg := range m.Moves {
			if !slices.Contains(e2e, tg.Metric) {
				t.Errorf("%s moves unknown metric %q", m.Name, tg.Metric)
			}
			for _, w := range tg.Workloads {
				if !slices.Contains(wls, w) {
					t.Errorf("%s names unknown workload %q", m.Name, w)
				}
			}
		}
	}
	perLayer := names(spec.PerLayer)
	for _, layer := range led.Layers {
		if !slices.Contains(perLayer, layer+".cpu_share") {
			t.Errorf("layer %q has no %s.cpu_share metric", layer, layer)
		}
	}
	if led.HeldOutSeed == 0 {
		t.Error("ledger has no held-out seed")
	}
}

func TestDocumentsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := w.docs(5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.docs(5)
		c, _ := w.docs(6)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two document sets", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: two seeds gave one document set", w.name)
		}
		for i, sc := range a {
			if err := sc.Validate(); err != nil {
				t.Errorf("%s document %d: %v", w.name, i, err)
			}
		}
	}
}
