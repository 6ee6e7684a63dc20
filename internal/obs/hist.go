// Log-bucketed latency histograms: the registry-resident distribution
// type behind the delay metrics (end-to-end delivery delay, per-hop
// forwarding delay, join-to-first-packet time, convergence time). The
// bucket layout is fixed at compile time — histSub sub-buckets per
// power of two over a wide exponent range — so Observe is a pure
// array increment (no allocation, no resizing, no locking), Merge is
// element-wise addition that commutes exactly (uint64 counts), and
// Export renders byte-identically whether the samples were recorded
// by one registry or sharded across workers and folded at a barrier.
package obs

import (
	"math"
	"strconv"
)

const (
	// histSub is the number of sub-buckets per power of two; the
	// relative quantile error is bounded by 2^(1/histSub)-1 (~9%).
	histSub = 8
	// histMinExp/histMaxExp bound the finite buckets: values below
	// 2^histMinExp land in the underflow bucket, values at or above
	// 2^histMaxExp in the overflow bucket. The range covers sub-
	// microsecond wall delays (seconds) and week-long virtual delays
	// (units) with the same layout.
	histMinExp = -20
	histMaxExp = 30
	// histBuckets is the total bucket count: underflow + finite +
	// overflow.
	histBuckets = (histMaxExp-histMinExp)*histSub + 2
)

// histMinValue / histMaxValue are the numeric range edges.
var (
	histMinValue = math.Ldexp(1, histMinExp)
	histMaxValue = math.Ldexp(1, histMaxExp)
	// histSubBounds[k] is the normalized-fraction lower bound of
	// sub-bucket k: 2^(k/histSub - 1), compared against math.Frexp's
	// fraction (in [0.5, 1)). Precomputed so bucket selection is a
	// handful of exact float comparisons — no Log calls whose last-ulp
	// behaviour could vary across platforms.
	histSubBounds = func() [histSub]float64 {
		var b [histSub]float64
		for k := 0; k < histSub; k++ {
			b[k] = math.Exp2(float64(k)/histSub - 1)
		}
		b[0] = 0.5 // exact
		return b
	}()
)

// Histogram is a fixed-layout log-bucketed distribution. It is
// single-goroutine like the rest of the registry; concurrent writers
// each own one and fold them with Merge. The zero value is NOT ready —
// construct through Counters.Hist (registry-resident, exported and
// merged with the registry) or NewHistogram (standalone, for tests).
type Histogram struct {
	name   string
	labels string
	count  uint64
	sum    float64
	min    float64
	max    float64
	bkt    [histBuckets]uint64
}

// NewHistogram builds a standalone histogram (not registered anywhere).
func NewHistogram(name string, kv ...string) *Histogram {
	return &Histogram{name: name, labels: renderLabels(kv)}
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// bucketIndex maps a value to its bucket. Non-positive and NaN values
// land in the underflow bucket — delays are non-negative by
// construction, and zero (a same-instant hop under a coarse clock) is
// still a real observation.
func bucketIndex(v float64) int {
	if !(v >= histMinValue) { // also catches NaN
		return 0
	}
	if v >= histMaxValue {
		return histBuckets - 1
	}
	f, e := math.Frexp(v) // v = f * 2^e, f in [0.5, 1)
	sub := 0
	for sub+1 < histSub && f >= histSubBounds[sub+1] {
		sub++
	}
	return (e-1-histMinExp)*histSub + sub + 1
}

// bucketUpper returns the exclusive upper bound of bucket i (+Inf for
// the overflow bucket).
func bucketUpper(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	// Bucket 0 is the underflow bucket [0, 2^histMinExp); finite bucket
	// i covers [2^(histMinExp+(i-1)/histSub), 2^(histMinExp+i/histSub)).
	return math.Exp2(float64(histMinExp) + float64(i)/histSub)
}

// Observe records one value. Allocation-free.
func (h *Histogram) Observe(v float64) {
	h.bkt[bucketIndex(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Merge folds other into h, bucket by bucket. The layout is shared by
// construction, so the bucket counts (uint64) of K merged worker
// histograms are exactly those of one histogram that saw all the
// observations; _sum may differ from the sequential sum in the last
// ulp when the observations themselves are not exactly summable
// (float addition order), which the deterministic export tolerates
// because each registry's own export is stable.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i := range h.bkt {
		h.bkt[i] += other.bkt[i]
	}
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// upper edge of the bucket holding the q*count-th observation, clamped
// to the observed [min, max]. The bound is within a factor of
// 2^(1/histSub) of the true quantile. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.bkt[i]
		if float64(cum) >= rank {
			v := bucketUpper(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// appendBucket appends one cumulative _bucket sample: the label block
// with le injected, then the count.
func (h *Histogram) appendBucket(b []byte, upper float64, cum uint64) []byte {
	b = append(b, h.name...)
	b = append(b, "_bucket"...)
	if h.labels == "" {
		b = append(b, '{')
	} else {
		b = append(b, h.labels[:len(h.labels)-1]...)
		b = append(b, ',')
	}
	b = append(b, `le="`...)
	if math.IsInf(upper, 1) {
		b = append(b, "+Inf"...)
	} else {
		b = appendValue(b, upper)
	}
	b = append(b, `"} `...)
	b = strconv.AppendUint(b, cum, 10)
	return append(b, '\n')
}

// appendText appends the histogram in the Prometheus text format:
// cumulative _bucket samples (only non-empty buckets, plus the
// mandatory +Inf), then _sum and _count. Deterministic — the layout is
// fixed and the counts are integers.
func (h *Histogram) appendText(b []byte) []byte {
	var cum uint64
	for i := 0; i < histBuckets-1; i++ {
		if h.bkt[i] == 0 {
			continue
		}
		cum += h.bkt[i]
		b = h.appendBucket(b, bucketUpper(i), cum)
	}
	b = h.appendBucket(b, math.Inf(1), h.count)
	b = append(b, h.name...)
	b = append(b, "_sum"...)
	b = append(b, h.labels...)
	b = append(b, ' ')
	b = appendValue(b, h.sum)
	b = append(b, '\n')
	b = append(b, h.name...)
	b = append(b, "_count"...)
	b = append(b, h.labels...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, h.count, 10)
	return append(b, '\n')
}
