package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hbh/internal/testseed"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Std() != 0 || a.StdErr() != 0 {
		t.Error("zero accumulator not zeroed")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if got := a.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Known dataset: population variance 4, sample variance 32/7.
	if got := a.Variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorSingleSample(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Variance() != 0 || a.Min() != 3.5 || a.Max() != 3.5 {
		t.Errorf("single sample: %+v", a)
	}
}

// TestQuickWelfordMatchesNaive: the streaming computation agrees with
// the two-pass formula on random data.
func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%200
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		var a Accumulator
		for i := range xs {
			xs[i] = rng.Float64()*1000 - 500
			a.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(n-1)
		return math.Abs(a.Mean()-mean) < 1e-9*(1+math.Abs(mean)) &&
			math.Abs(a.Variance()-variance) < 1e-6*(1+variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}

func TestCI95Shrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var small, large Accumulator
	for i := 0; i < 10; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 1000; i++ {
		large.Add(rng.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Errorf("CI95 did not shrink: %v -> %v", small.CI95(), large.CI95())
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("HBH", []int{2, 4, 6})
	s.At(2).Add(10)
	s.At(2).Add(20)
	s.At(4).Add(30)
	s.At(6).Add(50)
	if s.At(2).Mean() != 15 || s.At(4).Mean() != 30 || s.At(6).Mean() != 50 {
		t.Errorf("means = %v, %v, %v", s.At(2).Mean(), s.At(4).Mean(), s.At(6).Mean())
	}
	if got := s.AvgMean(); math.Abs(got-(15+30+50)/3.0) > 1e-12 {
		t.Errorf("AvgMean = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("At(unknown x) did not panic")
		}
	}()
	s.At(99)
}

// TestCI95StudentT pins the small-sample critical values: with n
// samples the half-width must use the Student-t quantile, not z=1.96 —
// at n=2 the difference is a factor of 6.5.
func TestCI95StudentT(t *testing.T) {
	cases := []struct {
		n    int
		crit float64
	}{
		{2, 12.706}, {3, 4.303}, {10, 2.262}, {30, 2.045}, {31, 1.96}, {500, 1.96},
	}
	for _, tc := range cases {
		var a Accumulator
		for i := 0; i < tc.n; i++ {
			a.Add(float64(i % 2)) // alternating 0/1: nonzero variance
		}
		want := tc.crit * a.StdErr()
		if got := a.CI95(); math.Abs(got-want) > 1e-12 {
			t.Errorf("n=%d: CI95 = %v, want %v (crit %v)", tc.n, got, want, tc.crit)
		}
	}
	var a Accumulator
	a.Add(1)
	if a.CI95() != 0 {
		t.Errorf("CI95 with one sample = %v, want 0", a.CI95())
	}
}
