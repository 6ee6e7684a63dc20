package obs

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{histMinValue / 2, 0},
		{histMinValue, 1},
		{histMaxValue, histBuckets - 1},
		{histMaxValue * 4, histBuckets - 1},
		{math.Inf(1), histBuckets - 1},
		{1, (0-histMinExp)*histSub + 1}, // 1 = 2^0, first sub-bucket of exponent 0
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every finite value must fall strictly below its bucket's upper
	// bound and at or above the previous bound.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		v := math.Exp(rng.Float64()*40 - 15) // spans ~e^-15..e^25
		b := bucketIndex(v)
		if v >= bucketUpper(b) {
			t.Fatalf("value %v at or above its bucket %d upper bound %v", v, b, bucketUpper(b))
		}
		if b > 1 && v < bucketUpper(b-1) {
			t.Fatalf("value %v below bucket %d lower bound %v", v, b, bucketUpper(b-1))
		}
	}
}

func TestHistogramMergeMatchesSequential(t *testing.T) {
	// Three shards each observe a slice of the sample stream; merging
	// the shard registries must export byte-identically to one registry
	// that saw everything — the contract the sharded runtime's worker
	// barrier relies on.
	// Samples are dyadic rationals (multiples of 2^-10, bounded), so
	// every partial sum is exact in float64 and addition order cannot
	// perturb _sum — byte-identity then holds for the whole export, not
	// just the integer bucket counts.
	rng := rand.New(rand.NewSource(42))
	var samples []float64
	for i := 0; i < 5000; i++ {
		samples = append(samples, float64(1+rng.Intn(1<<25))/1024)
	}

	seq := NewCounters()
	hSeq := seq.Hist("hbh_delivery_delay", "channel", "x")
	for _, v := range samples {
		hSeq.Observe(v)
	}

	merged := NewCounters()
	for w := 0; w < 3; w++ {
		shard := NewCounters()
		h := shard.Hist("hbh_delivery_delay", "channel", "x")
		for i := w; i < len(samples); i += 3 {
			h.Observe(samples[i])
		}
		merged.Merge(shard)
	}

	var a, b bytes.Buffer
	if err := seq.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.Export(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("merged export differs from sequential:\n--- sequential ---\n%s\n--- merged ---\n%s", a.String(), b.String())
	}
	if hSeq.Count() != uint64(len(samples)) {
		t.Fatalf("count = %d, want %d", hSeq.Count(), len(samples))
	}
}

func TestHistogramQuantileProperty(t *testing.T) {
	// Quantile returns a bucket upper bound: it must never undershoot
	// the true quantile and never overshoot it by more than one bucket
	// width (factor 2^(1/histSub)), clamped to the observed extremes.
	relBound := math.Exp2(1.0 / histSub)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(2000)
		h := NewHistogram("q")
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Exp(rng.NormFloat64() * 3)
			h.Observe(vals[i])
		}
		sort.Float64s(vals)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			got := h.Quantile(q)
			// The walk stops at the first integer cumulative count >=
			// q*n, i.e. the ceil(q*n)-th smallest observation.
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			truth := vals[rank-1]
			if got < truth && got < vals[n-1] && got != vals[0] {
				// An upper bound may only fall below the true quantile
				// through the max/min clamp.
				t.Fatalf("trial %d q=%v: quantile %v below true %v", trial, q, got, truth)
			}
			// The relative-error bound holds for the finite buckets;
			// underflow/overflow samples only promise the min/max clamp.
			if truth >= histMinValue && truth < histMaxValue && got > truth*relBound {
				t.Fatalf("trial %d q=%v: quantile %v overshoots true %v beyond factor %v", trial, q, got, truth, relBound)
			}
			if got < vals[0] || got > vals[n-1] {
				t.Fatalf("trial %d q=%v: quantile %v outside observed [%v, %v]", trial, q, got, vals[0], vals[n-1])
			}
		}
	}
}

func TestHistogramQuantileEmptyAndSingle(t *testing.T) {
	h := NewHistogram("q")
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	h.Observe(3.5)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 3.5 {
			t.Fatalf("single-sample quantile(%v) = %v, want 3.5", q, got)
		}
	}
	if h.Min() != 3.5 || h.Max() != 3.5 || h.Count() != 1 {
		t.Fatalf("summary stats wrong: min %v max %v count %d", h.Min(), h.Max(), h.Count())
	}
	if text := string(h.appendText(nil)); !strings.Contains(text, "q_sum 3.5\n") {
		t.Fatalf("export lacks the one-sample sum:\n%s", text)
	}
}

func TestHistogramExportContract(t *testing.T) {
	c := NewCounters()
	h := c.Hist("hbh_hop_delay")
	for _, v := range []float64{0.001, 0.002, 0.002, 1.5, 40} {
		h.Observe(v)
	}
	c.Add("hbh_forwards_total", 3, "node", "r1")

	var buf bytes.Buffer
	if err := c.Export(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE hbh_hop_delay histogram",
		`hbh_hop_delay_bucket{le="+Inf"} 5`,
		"hbh_hop_delay_count 5",
		"hbh_hop_delay_sum 41.505",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
	// The full export must satisfy the promtext validator, histogram
	// contract included.
	if err := ValidatePromText(strings.NewReader(out)); err != nil {
		t.Fatalf("export fails its own validator: %v\n%s", err, out)
	}
	// Determinism: a second export is byte-identical.
	var again bytes.Buffer
	if err := c.Export(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Fatal("repeated export not byte-identical")
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	a := NewHistogram("m")
	b := NewHistogram("m")
	a.Merge(b) // empty into empty: no-op
	if a.Count() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatal("merging empty histograms changed state")
	}
	b.Observe(2)
	a.Merge(b)
	if a.Count() != 1 || a.Min() != 2 || a.Max() != 2 {
		t.Fatalf("merge into empty lost extremes: min %v max %v", a.Min(), a.Max())
	}
}
