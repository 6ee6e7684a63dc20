package metrics

// This file holds the disruption bookkeeping of the A12 robustness
// envelope: a DeliveryMatrix records which of a stream of periodic
// data probes each receiver actually got, and reports the delivery
// ratio over a window of send times. Times are plain float64s (the
// simulator's time units) so the package stays dependency-free.

// DeliveryMatrix records periodic probe receptions per receiver.
// Create with NewDeliveryMatrix, mark each emission with Sent and each
// reception with Delivered.
type DeliveryMatrix struct {
	sendTimes []float64
	// got[r][p] reports whether receiver r got probe p.
	got [][]bool
}

// NewDeliveryMatrix returns a matrix for the given receiver count.
func NewDeliveryMatrix(receivers int) *DeliveryMatrix {
	if receivers < 1 {
		panic("metrics: DeliveryMatrix needs at least one receiver")
	}
	return &DeliveryMatrix{got: make([][]bool, receivers)}
}

// Sent records one probe emission at time t (times must be
// nondecreasing) and returns its probe index, which the caller maps to
// whatever identifies the packet in flight (a sequence number).
func (m *DeliveryMatrix) Sent(t float64) int {
	if n := len(m.sendTimes); n > 0 && t < m.sendTimes[n-1] {
		panic("metrics: probe send times must be nondecreasing")
	}
	m.sendTimes = append(m.sendTimes, t)
	for r := range m.got {
		m.got[r] = append(m.got[r], false)
	}
	return len(m.sendTimes) - 1
}

// Delivered marks probe p as received by receiver r. Duplicate marks
// are fine (a probe is either received or not).
func (m *DeliveryMatrix) Delivered(r, p int) { m.got[r][p] = true }

// DeliveryRatio returns received / expected over all receivers for
// probes sent in [from, to). Returns 1 when no probe falls in the
// window.
func (m *DeliveryMatrix) DeliveryRatio(from, to float64) float64 {
	lo := len(m.sendTimes)
	for i, t := range m.sendTimes {
		if t >= from {
			lo = i
			break
		}
	}
	hi := lo
	for hi < len(m.sendTimes) && m.sendTimes[hi] < to {
		hi++
	}
	if hi == lo {
		return 1
	}
	expected := (hi - lo) * len(m.got)
	received := 0
	for _, row := range m.got {
		for p := lo; p < hi; p++ {
			if row[p] {
				received++
			}
		}
	}
	return float64(received) / float64(expected)
}
