package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hbh/internal/testseed"
)

func TestDistributionExactQuantiles(t *testing.T) {
	d := NewDistribution(1000)
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.95, 95.05},
	}
	for _, c := range cases {
		if got := d.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if d.N() != 100 {
		t.Errorf("N = %d", d.N())
	}
	if m := d.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("Mean = %v", m)
	}
}

func TestDistributionEmptyAndBounds(t *testing.T) {
	d := NewDistribution(100)
	if !math.IsNaN(d.Quantile(0.5)) || !math.IsNaN(d.Mean()) {
		t.Error("empty distribution must report NaN")
	}
	d.Add(7)
	if d.Quantile(0.5) != 7 {
		t.Error("single sample quantile wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range quantile did not panic")
		}
	}()
	d.Quantile(1.5)
}

func TestDistributionDecimationBounded(t *testing.T) {
	d := NewDistribution(100)
	for i := 0; i < 100000; i++ {
		d.Add(float64(i % 1000))
	}
	if len(d.vals) > 100 {
		t.Errorf("retained %d samples, cap 100", len(d.vals))
	}
	if d.N() != 100000 {
		t.Errorf("N = %d", d.N())
	}
	// Quantiles remain sane after decimation.
	med := d.Quantile(0.5)
	if med < 300 || med > 700 {
		t.Errorf("median after decimation = %v, want ~500", med)
	}
}

// TestQuickQuantileMatchesSort: with no decimation, quantiles agree
// with the sorted-slice definition.
func TestQuickQuantileMatchesSort(t *testing.T) {
	f := func(seed int64, nRaw uint8, qRaw uint8) bool {
		n := 2 + int(nRaw)%200
		q := float64(qRaw) / 255
		rng := rand.New(rand.NewSource(seed))
		d := NewDistribution(10000)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			d.Add(xs[i])
		}
		sort.Float64s(xs)
		pos := q * float64(n-1)
		lo := int(pos)
		want := xs[lo]
		if lo < n-1 {
			frac := pos - float64(lo)
			want = xs[lo]*(1-frac) + xs[lo+1]*frac
		}
		return math.Abs(d.Quantile(q)-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: testseed.Rand(t)}); err != nil {
		t.Error(err)
	}
}
