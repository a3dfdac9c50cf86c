package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
)

// profiled runs fn under a CPU profile written to path, then buckets
// the profile's flat samples by layer with `go tool pprof -top`.
func profiled(led *ledger, path string, fn func() *window) (map[string]float64, *window, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000", path).Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof: %w", err)
	}
	rows, err := parseTop(string(out))
	if err != nil {
		return nil, nil, err
	}
	shares, err := led.bucket(rows)
	if err != nil {
		return nil, nil, err
	}
	return shares, w, nil
}
