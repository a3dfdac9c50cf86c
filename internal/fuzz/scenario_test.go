package fuzz

import (
	"math"
	"strings"
	"testing"

	"routeless/internal/scenario"
)

// valid returns a small scenario that passes Validate; cases mutate it.
func valid() scenario.Scenario {
	return scenario.Scenario{
		Seed: 1, N: 10, Width: 500, Height: 500, Range: 250,
		Placement: scenario.PlaceUniform, Connected: true,
		Protocol: scenario.ProtoCounter1,
		Flows:    []scenario.Flow{{Src: 0, Dst: 9}},
		Interval: 0.5, DataSize: 64, Duration: 2,
	}
}

func TestValidateAcceptsBaseline(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("baseline scenario rejected: %v", err)
	}
}

func TestValidateConstraintMatrix(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*scenario.Scenario)
		want string // substring of the error
	}{
		{"n too small", func(s *scenario.Scenario) { s.N = 1 }, "N must be at least 2"},
		{"width nan", func(s *scenario.Scenario) { s.Width = math.NaN() }, "Width"},
		{"height negative", func(s *scenario.Scenario) { s.Height = -10 }, "Height"},
		{"range zero", func(s *scenario.Scenario) { s.Range = 0 }, "Range"},
		{"unknown placement", func(s *scenario.Scenario) { s.Placement = "ring" }, "unknown placement"},
		{"connected non-uniform", func(s *scenario.Scenario) { s.Placement = scenario.PlaceGrid }, "Connected requires uniform"},
		{"unknown protocol", func(s *scenario.Scenario) { s.Protocol = "ospf" }, "unknown protocol"},
		{"lambda negative", func(s *scenario.Scenario) { s.Lambda = -1 }, "Lambda"},
		{"interval inf", func(s *scenario.Scenario) { s.Interval = math.Inf(1) }, "Interval"},
		{"duration zero", func(s *scenario.Scenario) { s.Duration = 0 }, "Duration"},
		{"datasize zero", func(s *scenario.Scenario) { s.DataSize = 0 }, "DataSize"},
		{"flow out of range", func(s *scenario.Scenario) { s.Flows = []scenario.Flow{{Src: 0, Dst: 10}} }, "outside"},
		{"flow self loop", func(s *scenario.Scenario) { s.Flows = []scenario.Flow{{Src: 3, Dst: 3}} }, "self-loop"},
		{"flow duplicate", func(s *scenario.Scenario) {
			s.Flows = []scenario.Flow{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}}
		}, "duplicate flow"},
		{"movers zero", func(s *scenario.Scenario) { s.Mobility = &scenario.Mobility{Movers: 0, MaxSpeed: 1} }, "Movers"},
		{"movers beyond n", func(s *scenario.Scenario) { s.Mobility = &scenario.Mobility{Movers: 11, MaxSpeed: 1} }, "Movers"},
		{"speeds inverted", func(s *scenario.Scenario) {
			s.Mobility = &scenario.Mobility{Movers: 1, MinSpeed: 5, MaxSpeed: 1}
		}, "speeds"},
		{"tiles negative", func(s *scenario.Scenario) { s.Tiles = -1 }, "Tiles"},
		{"tiled fading", func(s *scenario.Scenario) { s.Connected = false; s.Tiles = 4; s.Fading = true }, "fading"},
		{"tiled mobility", func(s *scenario.Scenario) {
			s.Connected = false
			s.Tiles = 4
			s.Mobility = &scenario.Mobility{Movers: 1, MaxSpeed: 1}
		}, "mobility"},
		{"unknown fault kind", func(s *scenario.Scenario) { s.Faults = []scenario.FaultSpec{{Kind: "meteor"}} }, "unknown fault kind"},
		{"bad fault numerics", func(s *scenario.Scenario) {
			s.Faults = []scenario.FaultSpec{{Kind: "drain", CapacityJ: -1}}
		}, "CapacityJ"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := valid()
			tc.mut(&sc)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("scenario accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsFullFeatureSet(t *testing.T) {
	sc := valid()
	sc.Connected = false
	sc.Placement = scenario.PlaceCluster
	sc.Fading = true
	sc.Mobility = &scenario.Mobility{Movers: 3, MinSpeed: 1, MaxSpeed: 5}
	sc.Faults = []scenario.FaultSpec{
		{Kind: "crash", OffFraction: 0.1, Cycle: 1},
		{Kind: "jam", TxPowerDBm: 20, Period: 1, Burst: 0.2, SpeedMps: 3},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("full-feature scenario rejected: %v", err)
	}
	// Tiled variant of the same scenario, with the incompatible
	// features stripped, is also fine.
	sc.Fading = false
	sc.Mobility = nil
	sc.Tiles = 4
	if err := sc.Validate(); err != nil {
		t.Fatalf("tiled scenario rejected: %v", err)
	}
}

func TestPlanConversion(t *testing.T) {
	sc := valid()
	sc.Faults = []scenario.FaultSpec{
		{Kind: "crash", OffFraction: 0.2},
		{Kind: "drain", CapacityJ: 1},
		{Kind: "degrade", OffsetDB: -20},
		{Kind: "jam", TxPowerDBm: 15},
	}
	plan, err := sc.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 4 {
		t.Fatalf("plan has %d specs, want 4", len(plan))
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("converted plan invalid: %v", err)
	}
}
