package experiment

import (
	"strings"
	"testing"
)

func TestScaleExperimentSmall(t *testing.T) {
	res := ScaleExperiment(ScaleConfig{
		Sizes: []int{50, 120}, Sources: 200, Receivers: 8, Seed: 7,
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.TableBytes != row.EagerBytes {
			t.Fatalf("n=%d holds %d bytes of rows, want every row (%d)", row.Routers, row.TableBytes, row.EagerBytes)
		}
		if row.Verified != 5 {
			t.Fatalf("n=%d verified %d rows, want 5", row.Routers, row.Verified)
		}
		if !row.Converged {
			t.Fatalf("n=%d join did not converge", row.Routers)
		}
		if row.MFTEntries == 0 || row.MFTRouters == 0 {
			t.Fatalf("n=%d empty forwarding footprint %+v", row.Routers, row)
		}
		if row.Checked != "full" {
			t.Fatalf("n=%d check mode %q, want full with every row resident", row.Routers, row.Checked)
		}
	}
	out := res.FormatTable()
	if !strings.Contains(out, "A13 scale sweep") || !strings.Contains(out, "full") {
		t.Fatalf("table missing expected content:\n%s", out)
	}
}

// TestScaleExperimentLazySampled crosses unicast.New's 4096-node cut,
// so the bounded router and the sampled checker run in tier 1.
func TestScaleExperimentLazySampled(t *testing.T) {
	res := ScaleExperiment(ScaleConfig{
		Sizes: []int{4100}, Sources: 100, Receivers: 10, Seed: 11, CheckSample: 4,
	})
	row := res.Rows[0]
	if row.TableBytes >= row.EagerBytes {
		t.Fatalf("bounded router holds %d bytes, not below every row's %d", row.TableBytes, row.EagerBytes)
	}
	if row.Checked != "sampled(4)" {
		t.Fatalf("check mode %q, want sampled(4)", row.Checked)
	}
	if !row.Converged {
		t.Fatal("join did not converge on the bounded router")
	}
}
