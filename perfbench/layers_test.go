package main

import (
	"math"
	"os"
	"testing"
)

func TestParseTopFixture(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parseTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("parsed %d rows, want 19", len(rows))
	}
	if rows[0].Func != "routeless/internal/sim.(*Kernel).siftDown" || rows[0].FlatS != 3 {
		t.Fatalf("first row = %+v", rows[0])
	}
	if rows[3].Func != "routeless/internal/digest.(*Hash).Uint64" || math.Abs(rows[3].FlatS-0.25) > 1e-12 {
		t.Fatalf("inline row = %+v", rows[3])
	}
}

func TestParseTopRejectsNonTable(t *testing.T) {
	if _, err := parseTop("go tool pprof: no such file\n"); err == nil {
		t.Fatal("want an error for output with no table")
	}
}

func TestLayerOf(t *testing.T) {
	led, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	for fn, want := range map[string]string{
		"routeless/internal/phy.(*Radio).DigestState":           "snapshot",
		"routeless/internal/routing.(*ActiveTable).DigestState": "snapshot",
		"routeless/internal/digest.(*Hash).Uint64":              "snapshot",
		"runtime.mallocgc":                  "alloc",
		"runtime.mallocgcSmallScanNoHeader": "alloc",
		"runtime.nextFreeFast":              "alloc",
		"runtime.scanobject":                "gc",
		"runtime.gcBgMarkWorker":            "gc",
		"gcWriteBarrier":                    "gc",
		"runtime.futex":                     "other",
		"slices.partitionCmpFunc[go.shape.struct { At routeless/internal/sim.Time }]": "other",
		"routeless/internal/sim.(*Kernel).siftDown":                                   "sim",
		"routeless/internal/node.(*Network).Run":                                      "scenario",
		"routeless/internal/propagation.FreeSpace.Rx":                                 "scenario",
		"routeless/internal/sweep.(*Pool).worker":                                     "serve",
		"routeless/internal/experiments.(*AppTap).Rx":                                 "metrics",
		"routeless/internal/packet.(*DedupCache).Seen":                                "other",
	} {
		if got := led.layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketFixture(t *testing.T) {
	led, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parseTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	shares, err := led.bucket(rows)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 0.30, "snapshot": 0.20, "alloc": 0.175, "gc": 0.125, "other": 0.05,
		"scenario": 0.05, "flood": 0.03, "serve": 0.02, "mac": 0.05,
		"phy": 0, "routing": 0, "core": 0, "fault": 0, "metrics": 0,
	}
	sum := 0.0
	for layer, share := range shares {
		sum += share
		if math.Abs(share-want[layer]) > 1e-9 {
			t.Errorf("%s share = %v, want %v", layer, share, want[layer])
		}
	}
	if len(shares) != len(led.Layers) {
		t.Errorf("got %d layers, want every ledger layer (%d)", len(shares), len(led.Layers))
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}
