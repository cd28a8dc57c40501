package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile for it to count as measured.
const minTail = 10

// dist is a sorted sample of durations or sizes.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for an empty sample.
func (d dist) median() float64 {
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// tail reports the highest percentile, at most p99, that has at least
// minTail samples beyond it, with that percentile (0..100). A sample
// too small to have minTail samples beyond its median falls back to
// the maximum, reported as percentile 100.
func (d dist) tail() (v, pct float64) {
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	// idx is the nearest-rank index of p99, capped so that minTail
	// samples lie beyond it.
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if idx > n-1-minTail {
		idx = n - 1 - minTail
	}
	if idx < n/2 {
		return d[n-1], 100
	}
	return d[idx], 100 * float64(idx+1) / float64(n)
}

func (d dist) sum() float64 {
	var s float64
	for _, x := range d {
		s += x
	}
	return s
}

// describe is a one-line summary for the run log.
func (d dist) describe(unit string) string {
	v, pct := d.tail()
	return fmt.Sprintf("n=%d p50=%.4g%s p%.1f=%.4g%s", len(d), d.median(), unit, pct, v, unit)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for a bad "who" argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuPerUpdate is the CPU time spent between two readings divided by
// the updates applied in between, in microseconds.
func cpuPerUpdate(before, after time.Duration, updates int64) float64 {
	if updates <= 0 {
		return 0
	}
	return float64(after-before) / float64(time.Microsecond) / float64(updates)
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// rtSample is one reading of the runtime counters the traced run
// reports per update.
type rtSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return rtSample{mallocs: u(0), allocBytes: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// load collects what the writers observed during the measured phase.
type load struct {
	mu      sync.Mutex
	fresh   []float64 // ms
	applied int64
}

// record notes n updates that became visible after freshness d.
func (l *load) record(n int, d time.Duration) {
	l.mu.Lock()
	l.fresh = append(l.fresh, float64(d)/float64(time.Millisecond))
	l.applied += int64(n)
	l.mu.Unlock()
}
