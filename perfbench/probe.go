package main

import (
	"syscall"
	"unsafe"
)

// The host probe is fixed work that calls no simulator code, timed
// after each document or session. On a box shared with other tenants
// one workload's CPU time per event varied by 60% over ten runs in
// twenty minutes; the probe slows with the program (across the passes
// of a run their CPU times correlate about 0.9), so a pass's CPU time
// divided by the probe's, taken beside it, keeps the program's own cost
// and drops most of the host's.
//
// It mixes the two ways a neighbour slows the program: a dependent
// pointer chase over a buffer the size of a large cache (memory and
// shared-cache contention) and branchy binary-heap work on a small array
// (core contention and clock speed).
const (
	probeChaseWords = 4 << 20 // uint32s: 16 MiB
	probeChaseSteps = 20_000
	probeHeapSteps  = 40_000
	// probeNominalS is one probe's CPU seconds between documents on the
	// reference box (2-vCPU Xeon, go1.24.0) at its quiet median: scaled
	// times are in that box's seconds.
	probeNominalS = 0.0055
)

var (
	// probeChase is a single cycle through every index, mapped outside
	// the Go heap so it neither counts in the program's heap nor moves
	// its collections.
	probeChase []uint32
	probeHeap  [1 << 12]uint64
	probeSink  uint64
)

// initProbe maps and fills the chase buffer (Sattolo's algorithm, so
// the chase never falls into a short cycle).
func initProbe() error {
	mem, err := syscall.Mmap(-1, 0, probeChaseWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	probeChase = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeChaseWords)
	for i := range probeChase {
		probeChase[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(probeChase) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		probeChase[i], probeChase[j] = probeChase[j], probeChase[i]
	}
	return nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// probeHost runs the probe once and returns its wall and CPU seconds.
func probeHost() (wall, cpu float64) {
	st := now()
	p := uint32(0)
	for i := 0; i < probeChaseSteps; i++ {
		p = probeChase[p]
	}
	h := probeHeap[:0]
	x := uint64(2463534242) + uint64(p)
	for i := 0; i < probeHeapSteps; i++ {
		x = xorshift(x)
		if len(h) == cap(h) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			for k := 0; ; {
				l := 2*k + 1
				if l >= len(h) {
					break
				}
				if r := l + 1; r < len(h) && h[r] < h[l] {
					l = r
				}
				if h[k] <= h[l] {
					break
				}
				h[k], h[l] = h[l], h[k]
				k = l
			}
		}
		h = append(h, x)
		for k := len(h) - 1; k > 0; {
			par := (k - 1) / 2
			if h[par] <= h[k] {
				break
			}
			h[par], h[k] = h[k], h[par]
			k = par
		}
	}
	probeSink += x
	return st.since()
}
