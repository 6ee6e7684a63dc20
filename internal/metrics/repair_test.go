package metrics

import "testing"

// fill marks receiver r as having received probes [lo, hi).
func fill(m *DeliveryMatrix, r, lo, hi int) {
	for p := lo; p < hi; p++ {
		m.Delivered(r, p)
	}
}

func TestDeliveryMatrixBasics(t *testing.T) {
	m := NewDeliveryMatrix(2)
	for i := 0; i < 5; i++ {
		if p := m.Sent(float64(i * 10)); p != i {
			t.Fatalf("Sent returned index %d, want %d", p, i)
		}
	}
	m.Delivered(0, 2)
	m.Delivered(0, 2) // duplicate marks are fine
	// Probe 2 (t=20) reached one receiver of two.
	if r := m.DeliveryRatio(20, 30); r != 0.5 {
		t.Errorf("probe-2 ratio = %v, want 0.5", r)
	}

	defer func() {
		if recover() == nil {
			t.Error("decreasing send time did not panic")
		}
	}()
	m.Sent(5)
}

func TestDeliveryRatioWindows(t *testing.T) {
	m := NewDeliveryMatrix(2)
	for i := 0; i < 10; i++ {
		m.Sent(float64(i * 10))
	}
	fill(m, 0, 0, 10) // receiver 0 gets everything
	fill(m, 1, 0, 3)  // receiver 1 blacks out for probes 3..6
	fill(m, 1, 7, 10)

	if r := m.DeliveryRatio(0, 100); r != 16.0/20.0 {
		t.Errorf("overall ratio = %v, want 0.8", r)
	}
	// The blackout window [30, 70): receiver 0 has 4/4, receiver 1 has 0/4.
	if r := m.DeliveryRatio(30, 70); r != 0.5 {
		t.Errorf("blackout-window ratio = %v, want 0.5", r)
	}
	if r := m.DeliveryRatio(200, 300); r != 1 {
		t.Errorf("empty-window ratio = %v, want 1", r)
	}
}
