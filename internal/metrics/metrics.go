// Package metrics provides the aggregation used by the experiment
// harness: streaming mean/variance (Welford) plus confidence
// intervals, so 500-run batches can be summarised without storing the
// samples.
package metrics

import (
	"fmt"
	"math"
)

// Accumulator is a streaming mean/variance aggregator. The zero value
// is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one sample in.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Merge folds another accumulator into a, as if every sample b saw had
// been Added to a (pairwise combine of Chan et al., "Updating Formulae
// and a Pairwise Algorithm for Computing Sample Variances"). Count,
// min and max merge exactly; mean and m2 are algebraically equal to
// the sequential result but may differ in the last float64 bits, so
// bit-reproducible outputs must not mix worker counts — the sharded
// runtime merges shards in a fixed order to keep any given worker
// count reproducible.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.m2 += b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	a.mean += d * float64(b.n) / float64(n)
	a.n = n
}

// N returns the sample count.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 with no samples).
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest sample (0 with no samples).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample (0 with no samples).
func (a *Accumulator) Max() float64 { return a.max }

// Variance returns the unbiased sample variance (0 with <2 samples).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.Std() / math.Sqrt(float64(a.n))
}

// tCrit95 holds the two-tailed 95% Student-t critical values for
// degrees of freedom 1..29. Above that the normal approximation is
// within half a percent and z=1.96 takes over.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
	2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
	2.048, 2.045,
}

// CI95 returns the half-width of the 95% confidence interval of the
// mean: Student-t critical values for n < 30 (a hardcoded z=1.96 would
// overstate confidence at the small-n grid points some sweeps
// produce), the normal approximation beyond. With fewer than two
// samples there is no interval and it returns 0.
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	crit := 1.96
	if df := a.n - 1; df < 30 {
		crit = tCrit95[df-1]
	}
	return crit * a.StdErr()
}

// String renders "mean ± ci95 (n=..)".
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", a.Mean(), a.CI95(), a.n)
}

// Series is one plotted curve: y-aggregates indexed by x.
type Series struct {
	// Name is the legend label, e.g. "HBH".
	Name string
	// X holds the x-axis values in plot order.
	X []int
	// Y holds one aggregate per x value.
	Y []*Accumulator
}

// NewSeries allocates a series over the given x values.
func NewSeries(name string, xs []int) *Series {
	s := &Series{Name: name, X: append([]int(nil), xs...)}
	s.Y = make([]*Accumulator, len(xs))
	for i := range s.Y {
		s.Y[i] = &Accumulator{}
	}
	return s
}

// At returns the accumulator for x. Panics on unknown x: that is
// always a harness bug.
func (s *Series) At(x int) *Accumulator {
	for i, v := range s.X {
		if v == x {
			return s.Y[i]
		}
	}
	panic(fmt.Sprintf("metrics: series %q has no x=%d", s.Name, x))
}

// AvgMean returns the average of the per-x means, the "in average over
// all group sizes" figure the paper quotes for protocol gaps.
func (s *Series) AvgMean() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	var sum float64
	for _, a := range s.Y {
		sum += a.Mean()
	}
	return sum / float64(len(s.Y))
}
