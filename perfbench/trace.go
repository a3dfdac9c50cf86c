package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sync"
	"syscall"
	"time"
)

// stamp is a point in wall-clock time and in the process's CPU time
// (every thread: the simulation, GC workers, server goroutines).
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return stamp{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// since returns the wall and CPU seconds elapsed since s.
func (s stamp) since() (wall, cpu float64) {
	n := now()
	return n.wall.Sub(s.wall).Seconds(), (n.cpu - s.cpu).Seconds()
}

// span is one timed call the benchmark made into the simulator: a
// scenario API call, an HTTP request, or a grouping of them (a pass, a
// document, a session). Spans of one serve session share its id.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Session int     `json:"session"`
	Name    string  `json:"name"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
}

// tracer keeps spans in memory and labels the CPU profile with the span
// kind. A disabled tracer only runs the wrapped call, so untraced runs
// measure the calls alone.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// untraced is the disabled tracer; it holds no state.
var untraced = &tracer{}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

// do runs fn inside a span and passes fn the span's id, so calls it
// makes can name it as their parent.
func (tr *tracer) do(name string, parent, session int, fn func(id int)) {
	if !tr.on {
		fn(0)
		return
	}
	tr.mu.Lock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Session: session, Name: name,
		Start: time.Since(tr.t0).Seconds()})
	tr.mu.Unlock()
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { fn(id) })
	end := time.Since(tr.t0).Seconds()
	tr.mu.Lock()
	tr.spans[id-1].End = end
	tr.mu.Unlock()
}

// spanSummary is the per-kind roll-up of the spans: how many, their
// total duration, and their self time (duration not covered by any
// child span).
type spanSummary struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (tr *tracer) summary() map[string]spanSummary {
	children := make(map[int][][2]float64)
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[string]spanSummary)
	for _, s := range tr.spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotalS += s.End - s.Start
		sum.SelfS += s.End - s.Start - covered(children[s.ID])
		out[s.Name] = sum
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]float64) float64 {
	slices.SortFunc(iv, func(a, b [2]float64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	total, end := 0.0, 0.0
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// writeSpans writes every span as one JSON line.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Runtime counters read around a measured window.
const (
	rtGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rtUserCPU      = "/cpu/classes/user:cpu-seconds"
	rtScavengeCPU  = "/cpu/classes/scavenge/total:cpu-seconds"
	rtGCCycles     = "/gc/cycles/automatic:gc-cycles"
	rtAllocBytes   = "/gc/heap/allocs:bytes"
	rtAllocObjects = "/gc/heap/allocs:objects"
	rtHeapObjects  = "/memory/classes/heap/objects:bytes"
	rtHeapGoal     = "/gc/heap/goal:bytes"
)

// runtimeCounters is a point-in-time read of the runtime counters.
type runtimeCounters map[string]float64

func readRuntime() runtimeCounters {
	names := []string{rtGCCPU, rtUserCPU, rtScavengeCPU, rtGCCycles, rtAllocBytes, rtAllocObjects}
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make(runtimeCounters, len(samples))
	for _, s := range samples {
		out[s.Name] = sampleValue(s)
	}
	return out
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// delta returns after−before for every counter.
func (after runtimeCounters) delta(before runtimeCounters) runtimeCounters {
	out := make(runtimeCounters, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// heapProbe tracks the largest GC heap goal seen at the sampling
// points (chunk boundaries and HTTP replies) of each pass: the heap size
// the collector lets the program reach, garbage included. It spreads
// less across seeds than sampled heap-object bytes, whose reading
// depends on where in the GC cycle a sample lands; a pass's peak still
// depends on where its collections fall, so the metric is the median
// over passes, not the largest peak of the run.
type heapProbe struct {
	mu    sync.Mutex
	s     [1]metrics.Sample
	peak  uint64    // since the last endPass
	peaks []float64 // MiB, one per finished pass
}

func newHeapProbe() *heapProbe {
	p := &heapProbe{}
	p.s[0].Name = rtHeapGoal
	return p
}

func (p *heapProbe) observe() {
	p.mu.Lock()
	metrics.Read(p.s[:])
	p.peak = max(p.peak, p.s[0].Value.Uint64())
	p.mu.Unlock()
}

// endPass records the finished pass's peak and starts the next.
func (p *heapProbe) endPass() {
	p.mu.Lock()
	p.peaks = append(p.peaks, float64(p.peak)/(1<<20))
	p.peak = 0
	p.mu.Unlock()
}

// liveHeap collects garbage and returns the bytes the heap still holds.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: rtHeapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
