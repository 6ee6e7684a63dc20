package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuNow is the process's user+system CPU time so far. CPU time, not
// wall time, prices a unit of work: on a shared two-core machine wall
// throughput of identical work moved 10 % between runs.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark is a point-in-time reading of the process's cumulative costs.
type mark struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func markNow() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{cpu: cpuNow(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// heapLiveMB forces a collection and reads what survived it.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// round is what one round of identical work cost and produced. Every
// end-to-end figure is a quantile of these over the run's rounds, so a
// stalled round (283 ms seen on this machine) moves nothing. Counts
// take the median. Timings take the lower quartile (quiet): what else
// runs on a shared host only ever adds time, in episodes of seconds to
// minutes, and the median of the rounds moves as soon as half of them
// are disturbed. Over fifteen runs of one seed of sim-paper-sweep the
// median of the rounds spread 5.6 % and their lower quartile 2.6 %.
type round struct {
	cpuUsPerUnit      float64
	allocsPerUnit     float64
	bytesPerUnit      float64
	framesPerDelivery float64
	// latencyP50/P90 are the round's percentiles of the workload's
	// latency-critical operation, in microseconds (see README.md).
	latencyP50 float64
	latencyP90 float64
	// refUs is what a call of the reference kernel cost beside this
	// round: the mean of the bursts before and after it (see calib.go).
	refUs float64
}

// atRefSpeed scales a CPU-bound timing of the round to the reference
// kernel's nominal speed.
func (r round) atRefSpeed(us float64) float64 { return us * refNominalUs / r.refUs }

// cost fills a round's resource columns from two marks.
func (r *round) cost(from, to mark, units int64) {
	u := float64(units)
	r.cpuUsPerUnit = float64(to.cpu-from.cpu) / 1e3 / u
	r.allocsPerUnit = float64(to.mallocs-from.mallocs) / u
	r.bytesPerUnit = float64(to.bytes-from.bytes) / u
}

func column(rs []round, f func(round) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile of an ascending slice by linear
// interpolation; NaN when empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quiet is the lower quartile: the figure for a timing, see round.
func quiet(xs []float64) float64 { return quantile(sorted(xs), 0.25) }

// iqrRatio is the distance between the first and third quartile as a
// share of the median, by the method statistics.quantiles(n=4) uses
// (exclusive), so it reads the same as the driver's spread check.
func iqrRatio(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k)*float64(n+1)/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			lo = 0
		}
		if lo > n-2 {
			lo = n - 2
		}
		f := pos - float64(lo)
		return s[lo] + (s[lo+1]-s[lo])*f
	}
	m := q(2)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// splitmix derives independent sub-seeds from the one -seed, so costs,
// hosts, audiences and the churn schedule do not share a stream.
func splitmix(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
