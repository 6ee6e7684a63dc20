package experiment

import "testing"

// TestForwardingStateShape: the A4 experiment must show the
// recursive-unicast advantage — fewer routers holding data-plane
// state than classical IP multicast — at every group size.
func TestForwardingStateShape(t *testing.T) {
	f := ForwardingState(4, 2)
	hbhB := f.SeriesByName("HBH-branch-rtrs")
	ipm := f.SeriesByName("IP-mcast-rtrs")
	if hbhB == nil || ipm == nil {
		t.Fatal("missing series")
	}
	for i, x := range hbhB.X {
		if hbhB.Y[i].Mean() >= ipm.Y[i].Mean() {
			t.Errorf("n=%d: HBH branching routers %.1f not below IP-multicast routers %.1f",
				x, hbhB.Y[i].Mean(), ipm.Y[i].Mean())
		}
	}
	// State grows with group size for everyone.
	for _, s := range f.Series {
		if first, last := s.Y[0].Mean(), s.Y[len(s.Y)-1].Mean(); last <= first {
			t.Errorf("series %s did not grow with group size: %v -> %v", s.Name, first, last)
		}
	}
}

// TestControlOverheadShape: overhead grows with group size and HBH
// pays more than REUNITE (fusion refreshes + join chains).
func TestControlOverheadShape(t *testing.T) {
	f := ControlOverhead(3, 2)
	hbh := f.SeriesByName("HBH")
	reu := f.SeriesByName("REUNITE")
	if hbh == nil || reu == nil {
		t.Fatal("missing series")
	}
	if hbh.AvgMean() <= reu.AvgMean() {
		t.Errorf("HBH overhead %.1f not above REUNITE %.1f (fusion is not free)",
			hbh.AvgMean(), reu.AvgMean())
	}
	for _, s := range f.Series {
		if first, last := s.Y[0].Mean(), s.Y[len(s.Y)-1].Mean(); last <= first {
			t.Errorf("series %s overhead did not grow: %v -> %v", s.Name, first, last)
		}
		for _, y := range s.Y {
			if y.Mean() <= 0 {
				t.Errorf("series %s has non-positive overhead", s.Name)
			}
		}
	}
}
