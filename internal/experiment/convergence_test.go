package experiment

import (
	"strings"
	"testing"
)

// TestConvergenceExperimentShape: the A11 profile produces one cell
// per (topo, costs, protocol), counts every run as converged (one join
// sample) or capped, measures a real (positive) join-phase convergence
// for the soft-state protocols, and reports the centrally built PIM
// baseline at exactly zero time and cost.
func TestConvergenceExperimentShape(t *testing.T) {
	res := ConvergenceExperiment(ConvergenceConfig{Receivers: 4, Runs: 2, Seed: 1})
	if len(res.Cells) != 12 {
		t.Fatalf("got %d cells, want 12 (2 topologies x 2 cost models x 3 protocols)", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.JoinTime.N()+c.Capped != 2 {
			t.Fatalf("%v/%v: %d join samples and %d capped, want 2 runs", c.Topo, c.Protocol, c.JoinTime.N(), c.Capped)
		}
		switch c.Protocol {
		case PIMSM:
			if c.JoinTime.Mean() != 0 || c.CtrlMsgs.Mean() != 0 || c.CtrlBytes.Mean() != 0 {
				t.Errorf("PIM baseline not zero: join=%v msgs=%v bytes=%v",
					c.JoinTime.Mean(), c.CtrlMsgs.Mean(), c.CtrlBytes.Mean())
			}
			if c.ReconvTime.N() != 0 || c.Healed.N() != 0 {
				t.Error("PIM baseline has a repair-cascade measurement")
			}
		default:
			if c.JoinTime.Mean() <= 0 {
				t.Errorf("%v/%v: join-phase convergence %.1f, want > 0",
					c.Topo, c.Protocol, c.JoinTime.Mean())
			}
			if c.CtrlMsgs.Mean() <= 0 || c.CtrlHops.Mean() <= 0 || c.CtrlBytes.Mean() <= 0 {
				t.Errorf("%v/%v: zero control cost for a soft-state cascade", c.Topo, c.Protocol)
			}
			if c.Healed.N() != 2 {
				t.Errorf("%v/%v: %d healed samples, want 2", c.Topo, c.Protocol, c.Healed.N())
			}
		}
	}

	table := res.FormatTable()
	for _, want := range []string{
		"A11 convergence profile", "join-time", "reconv", "capped", "relapsed",
		"HBH", "REUNITE", "PIM-SM", "random50", "asym",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestConvergenceExperimentDeterministic: same seed, same profile —
// the detector and causal stamps must not perturb the simulation.
func TestConvergenceExperimentDeterministic(t *testing.T) {
	a := ConvergenceExperiment(ConvergenceConfig{Receivers: 3, Runs: 1, Seed: 7}).FormatTable()
	b := ConvergenceExperiment(ConvergenceConfig{Receivers: 3, Runs: 1, Seed: 7}).FormatTable()
	if a != b {
		t.Fatalf("profile not reproducible at a fixed seed:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestConvergenceRelapseFence fences the convergence rule: over A11 at
// 40 runs per cell (8 receivers, seed 1), no run the rule declares
// converged may mutate again within the relapse watch. A window shorter
// than one soft-state generation fails here: entries a converged
// cascade no longer refreshes are still expiring.
func TestConvergenceRelapseFence(t *testing.T) {
	res := ConvergenceExperiment(ConvergenceConfig{Receivers: 8, Runs: 40, Seed: 1})
	for _, c := range res.Cells {
		t.Logf("%v asym=%v %v: %d/40 converged, %d relapsed", c.Topo, c.Asym, c.Protocol, c.JoinTime.N(), c.Relapsed)
		if c.Relapsed != 0 {
			t.Errorf("%v asym=%v %v: %d of %d converged runs mutated within %d intervals",
				c.Topo, c.Asym, c.Protocol, c.Relapsed, c.JoinTime.N(), relapseIntervals)
		}
	}
}

// TestConvergenceCheckedRepair runs A11 under the invariant checker:
// every HBH link-cut repair must heal, and each healed tree's fixed
// point must pass the converged profile (every member served once, no
// duplicate copies, shortest paths under the routing the cut left) or
// the run panics. The check runs after the fault phase is measured and
// only reads tables, so the table must equal the unchecked one.
func TestConvergenceCheckedRepair(t *testing.T) {
	cfg := ConvergenceConfig{Receivers: 8, Runs: 10, Seed: 1}
	defer func(old bool) { CheckInvariants = old }(CheckInvariants)
	CheckInvariants = false
	unchecked := ConvergenceExperiment(cfg).FormatTable()
	CheckInvariants = true
	res := ConvergenceExperiment(cfg)
	for _, c := range res.Cells {
		if c.Protocol == HBH && c.Healed.Mean() != 1 {
			t.Errorf("%v asym=%v HBH: healed %.2f of link cuts, want all", c.Topo, c.Asym, c.Healed.Mean())
		}
	}
	if checked := res.FormatTable(); checked != unchecked {
		t.Errorf("checker changed the table:\n--- unchecked ---\n%s\n--- checked ---\n%s", unchecked, checked)
	}
}
