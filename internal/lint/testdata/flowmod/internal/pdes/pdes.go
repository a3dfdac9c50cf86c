// Package pdes is a tile engine that spawns its own goroutines instead
// of submitting its windows to the worker pool. The goroutine rule no
// longer exempts internal/pdes, so both the sync import and the `go`
// statement are flagged.
package pdes

import "sync"

// Run fans one barrier window out to n tile goroutines.
func Run(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done() }()
	}
	wg.Wait()
}
