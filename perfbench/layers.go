package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

//go:embed ledger.json
var ledgerJSON []byte

// ledger is the benchmark's own data: the package→layer table the CPU
// profile is bucketed with, the held-out seed, and what each metric
// means and which end-to-end metric each per-layer metric should move.
type ledger struct {
	HeldOutSeed int64       `json:"held_out_seed"`
	Layers      []string    `json:"layers"`
	LayerRules  []layerRule `json:"layer_rules"`
	EndToEnd    []metricDoc `json:"end_to_end"`
	PerLayer    []metricDoc `json:"per_layer"`
}

// layerRule assigns a profile function to a layer. Every condition the
// rule sets must hold; rules are tried in order and the first match
// wins. A function no rule matches lands in "other".
type layerRule struct {
	Layer        string   `json:"layer"`
	Package      string   `json:"package,omitempty"`
	FuncContains string   `json:"func_contains,omitempty"`
	FuncPrefixes []string `json:"func_prefixes,omitempty"`
}

// metricDoc documents one metric; Moves names the end-to-end metric
// and workloads a per-layer metric is expected to move.
type metricDoc struct {
	Name       string   `json:"name"`
	Definition string   `json:"definition"`
	Moves      []target `json:"moves,omitempty"`
}

type target struct {
	Metric    string   `json:"metric"`
	Workloads []string `json:"workloads"`
}

func loadLedger() (*ledger, error) {
	var l ledger
	if err := json.Unmarshal(ledgerJSON, &l); err != nil {
		return nil, fmt.Errorf("ledger.json: %w", err)
	}
	return &l, nil
}

// packageOf returns the import path of a profile function name such as
// "routeless/internal/sim.(*Kernel).siftDown" or "runtime.mallocgc".
// Type arguments of a generic instantiation are not part of the path.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func (r layerRule) matches(fn, pkg string) bool {
	if r.Package != "" && r.Package != pkg {
		return false
	}
	if r.FuncContains != "" && !strings.Contains(fn, r.FuncContains) {
		return false
	}
	if len(r.FuncPrefixes) > 0 {
		for _, p := range r.FuncPrefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
		return false
	}
	return true
}

// layerOf maps one profile function to its layer.
func (l *ledger) layerOf(fn string) string {
	pkg := packageOf(fn)
	for _, r := range l.LayerRules {
		if r.matches(fn, pkg) {
			return r.Layer
		}
	}
	return "other"
}

// profileRow is one line of `go tool pprof -top`: a function and its
// flat (self) time in seconds.
type profileRow struct {
	Func  string
	FlatS float64
}

// parseTop reads `go tool pprof -top` text output. Header lines and
// anything that is not a five-column row are skipped.
func parseTop(text string) ([]profileRow, error) {
	var rows []profileRow
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		flat, err := parseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		// The function name is everything after the cum% column; it may
		// itself contain spaces (closures, generic instantiations).
		name := strings.Join(fields[5:], " ")
		name = strings.TrimSuffix(name, " (inline)")
		rows = append(rows, profileRow{Func: name, FlatS: flat})
	}
	if !inTable {
		return nil, fmt.Errorf("no pprof -top table in output")
	}
	return rows, nil
}

// parseDuration reads pprof's sample values: "0", "10ms", "1.20s",
// "2.50mins", "350us".
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"min", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}, {"h", 3600}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// bucket sums flat time per layer and returns each layer's share of the
// total. Every ledger layer is present (zero when unsampled) and the
// shares sum to 1.
func (l *ledger) bucket(rows []profileRow) (map[string]float64, error) {
	flat := make(map[string]float64, len(l.Layers))
	for _, name := range l.Layers {
		flat[name] = 0
	}
	total := 0.0
	for _, r := range rows {
		layer := l.layerOf(r.Func)
		if _, ok := flat[layer]; !ok {
			return nil, fmt.Errorf("layer rule names unknown layer %q", layer)
		}
		flat[layer] += r.FlatS
		total += r.FlatS
	}
	if !(total > 0) {
		return nil, fmt.Errorf("profile has no samples")
	}
	for k := range flat {
		flat[k] /= total
	}
	return flat, nil
}
