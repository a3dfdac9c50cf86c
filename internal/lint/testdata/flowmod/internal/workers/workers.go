// Package workers mirrors the real worker pool's shape: it is the only
// internal package allowed to own goroutines and sync primitives. The
// goroutine rule's exemption matches by path suffix, so this fixture
// pins that a `go` statement and a sync import stay clean here while
// the identical shapes in pdes.Run and proto.SpawnBad are flagged.
package workers

import "sync"

// Run fans n jobs out to their own goroutines and waits for all of
// them — the concurrency pattern the exemption exists for.
func Run(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done() }()
	}
	wg.Wait()
}
