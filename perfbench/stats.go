package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-th quantile (0 <= q <= 1) of values by linear
// interpolation between closest ranks, the definition numpy and
// statistics.quantiles(method="inclusive") use.  It does not modify values
// and returns NaN for an empty slice.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 0.5) }

func maxOf(values []float64) float64 { return percentile(values, 1) }

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc returns the cumulative heap bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// cost is what one sample consumed, measured from outside the system.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

// meter snapshots the clocks at the start of a sample; stop returns the
// deltas.
type meter struct {
	start time.Time
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter {
	return meter{alloc: totalAlloc(), cpu: cpuTime(), start: time.Now()}
}

func (m meter) stop() cost {
	wall := time.Since(m.start)
	cpu := cpuTime() - m.cpu
	return cost{wall: wall, cpu: cpu, alloc: totalAlloc() - m.alloc}
}
