package experiment

import (
	"strings"
	"testing"

	"hbh/internal/eventsim"
)

// advTestSpec is a fully loaded adversarial spec: churn, uniform and
// burst loss, jitter, duplication, SRLG cuts and membership churn all
// on at once.
func advTestSpec(p Protocol, seed int64) AdvSpec {
	return AdvSpec{
		Topo: TopoISP, Protocol: p, Receivers: 6, Seed: seed,
		ChurnPeriod: 50, ChurnAmplitude: 2,
		Loss: 0.10, BurstStart: 0.02, BurstLen: 3, Jitter: 5, Duplicate: 0.05,
		Groups: 2, Leaves: 1, WindowIntervals: 20, Check: true,
	}
}

// TestAdversarialRunDeterministic asserts the whole adversarial
// pipeline is bit-reproducible from the spec seed: two identical runs
// must agree on every measured field.
func TestAdversarialRunDeterministic(t *testing.T) {
	for _, p := range []Protocol{HBH, REUNITE, PIMSM} {
		a := AdversarialRun(advTestSpec(p, 7))
		b := AdversarialRun(advTestSpec(p, 7))
		if a.CleanTime != b.CleanTime || a.CleanConverged != b.CleanConverged ||
			a.Disruption != b.Disruption ||
			a.RecoveryTime != b.RecoveryTime || a.Recovered != b.Recovered ||
			a.Missing != b.Missing || a.Duplicates != b.Duplicates ||
			a.WindowStats != b.WindowStats || len(a.Violations) != len(b.Violations) {
			t.Errorf("%s: identical specs diverged:\n  %+v\n  %+v", p, a, b)
		}
	}
}

// TestAdversarialRunSeedsDiffer is the negative control: different
// seeds must actually change the run (otherwise the seed plumbing is
// dead and the determinism test proves nothing).
func TestAdversarialRunSeedsDiffer(t *testing.T) {
	a := AdversarialRun(advTestSpec(HBH, 7))
	b := AdversarialRun(advTestSpec(HBH, 8))
	if a.CleanTime == b.CleanTime && a.Disruption == b.Disruption &&
		a.WindowStats == b.WindowStats {
		t.Fatalf("seeds 7 and 8 produced identical runs: %+v", a)
	}
}

// TestAdversarialRunQuietSpec asserts the all-knobs-zero spec runs the
// plain join/converge pipeline: no adversary drops, no disruption, no
// violations, and recovery is instant (nothing mutates after a
// converged clean phase with no adversity).
func TestAdversarialRunQuietSpec(t *testing.T) {
	for _, p := range []Protocol{HBH, REUNITE, PIMSM} {
		r := AdversarialRun(AdvSpec{
			Topo: TopoISP, Protocol: p, Receivers: 6, Seed: 11, Check: true,
		})
		if !r.CleanConverged || !r.Recovered {
			t.Fatalf("%s: quiet spec did not converge: %+v", p, r)
		}
		if r.WindowStats.AdvLossDrops != 0 || r.WindowStats.AdvDups != 0 {
			t.Errorf("%s: adversary counters moved with all knobs zero: %+v", p, r.WindowStats)
		}
		if r.Disruption != 0 {
			t.Errorf("%s: quiet spec disrupted delivery: %.4f", p, r.Disruption)
		}
		if r.Missing != 0 || r.Duplicates != 0 {
			t.Errorf("%s: quiet spec final probe imperfect: missing=%d dups=%d", p, r.Missing, r.Duplicates)
		}
		if len(r.Violations) != 0 {
			t.Errorf("%s: quiet spec violated invariants: %v", p, r.Violations)
		}
		if r.RecoveryTime != 0 {
			t.Errorf("%s: quiet spec reported a recovery cascade: %v", p, r.RecoveryTime)
		}
	}
}

// TestAdversarialRunAdversaryBites asserts the control-plane adversary
// actually touches the soft-state protocols (drops accumulate) while
// leaving the centrally installed PIM baseline untouched — the
// contrast the A12 envelope is built on.
func TestAdversarialRunAdversaryBites(t *testing.T) {
	spec := func(p Protocol) AdvSpec {
		return AdvSpec{
			Topo: TopoISP, Protocol: p, Receivers: 6, Seed: 3,
			Loss: 0.2, WindowIntervals: 10,
		}
	}
	if r := AdversarialRun(spec(HBH)); r.WindowStats.AdvLossDrops == 0 {
		t.Error("HBH under 20% control loss recorded no adversary drops")
	}
	if r := AdversarialRun(spec(PIMSM)); r.WindowStats.AdvLossDrops != 0 {
		t.Errorf("PIM-SM has no control traffic but recorded %d adversary drops",
			r.WindowStats.AdvLossDrops)
	}
}

// TestAdversarialRunExtraChannels asserts the background-channel knob:
// the measured channel must still converge, deliver to every member
// and hold its invariants while three concurrent channels of the same
// protocol run their cascades through the same routers and adversary —
// and the background traffic must actually exist (more transmissions
// than the identical run without it). Zero extra channels must be
// bit-identical to a spec without the field (the knob is a dedicated
// rng stream).
func TestAdversarialRunExtraChannels(t *testing.T) {
	for _, p := range []Protocol{HBH, REUNITE} {
		spec := AdvSpec{
			Topo: TopoISP, Protocol: p, Receivers: 6, Seed: 5,
			Loss: 0.10, WindowIntervals: 10, Check: true,
		}
		base := AdversarialRun(spec)
		spec.ExtraChannels = 3
		loaded := AdversarialRun(spec)
		if !loaded.Recovered || loaded.Missing != 0 {
			t.Errorf("%s with 3 background channels: recovered=%v missing=%d",
				p, loaded.Recovered, loaded.Missing)
		}
		for _, v := range loaded.Violations {
			t.Errorf("%s with background channels violated an invariant: %s", p, v)
		}
		if loaded.WindowStats.Transmissions <= base.WindowStats.Transmissions {
			t.Errorf("%s: background channels added no traffic (%d vs %d transmissions)",
				p, loaded.WindowStats.Transmissions, base.WindowStats.Transmissions)
		}
		spec.ExtraChannels = 0
		if again := AdversarialRun(spec); again.CleanTime != base.CleanTime ||
			again.Disruption != base.Disruption || again.WindowStats != base.WindowStats {
			t.Errorf("%s: ExtraChannels=0 perturbed the measured run", p)
		}
	}
}

// TestRobustnessExperimentDeterministic asserts the A12 table is
// bit-identical across repeated runs and across worker counts (the
// cells parallelize; the aggregation must not).
func TestRobustnessExperimentDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("A12 grid is slow; skipped in -short")
	}
	cfg := RobustnessConfig{Receivers: 4, Runs: 2, Seed: 99}
	first := RobustnessExperiment(cfg).FormatTable()

	old := DefaultWorkers
	DefaultWorkers = 4
	defer func() { DefaultWorkers = old }()
	second := RobustnessExperiment(cfg).FormatTable()
	if first != second {
		t.Fatalf("A12 table differs across runs/worker counts:\n--- 1 worker\n%s\n--- 4 workers\n%s", first, second)
	}
	if !strings.Contains(first, "A12 robustness envelope") {
		t.Fatalf("table header missing:\n%s", first)
	}
	// 3 protocols x 3 churn levels x 3 loss levels.
	if got := strings.Count(first, "\n") - 11; got != 27 {
		t.Errorf("expected 27 cell rows, table has %d:\n%s", got, first)
	}
}

// TestAdversarialRunOracleSurvivesSlowOscillation pins the scenario
// fuzzer's first catch: on a churned ISP cost landscape, HBH can pass
// the quiescence gate in a pending-fusion state and flip its tree
// while the final probe is in flight. The converged oracle must not
// judge that probe against the post-flip tables (it used to report a
// phantom link-dup). The final probe follows a soft-state generation
// (T1+T2) with no mutation, which the oscillation does not sit out.
func TestAdversarialRunOracleSurvivesSlowOscillation(t *testing.T) {
	r := AdversarialRun(AdvSpec{
		Topo: TopoISP, Protocol: HBH, Receivers: 2, Seed: 0,
		ChurnPeriod: eventsim.Time(200) / 7, ChurnAmplitude: 1,
		WindowIntervals: 8, Check: true,
	})
	for _, v := range r.Violations {
		t.Errorf("oracle violation on the oscillation repro: %s", v)
	}
	if !r.Recovered {
		t.Error("the repro scenario recovers; got non-converged")
	}
}

// TestAdversarialRunNoStarvationBehindStaleMark pins the scenario
// fuzzer's second catch: cost churn moved a member's forward path off
// the relay its entry had been fused to, the relay's fusions stopped
// flowing (no trees transited it any more), and the member starved
// forever behind the stale mark — its joins kept refreshing the marked
// entry without ever carrying data. Fixed by refresh-time mark
// re-validation (Router.revalidateMark) plus fusion retraction on
// otherwise-matchless fusions (retractFusion). The genome lives in
// internal/advfuzz/testdata/fuzz/FuzzScenario as a permanent corpus
// regression; this test pins the engine-level repro directly.
func TestAdversarialRunNoStarvationBehindStaleMark(t *testing.T) {
	r := AdversarialRun(AdvSpec{
		Topo: TopoISP, Protocol: HBH, Receivers: 5, Seed: 0,
		ChurnPeriod: eventsim.Time(200) / 4, ChurnAmplitude: 1,
		WindowIntervals: 8, Check: true,
	})
	for _, v := range r.Violations {
		t.Errorf("starvation repro violated an invariant: %s", v)
	}
	if !r.Recovered {
		t.Error("starvation repro did not recover")
	}
	if r.Missing != 0 {
		t.Errorf("final probe missed %d member(s): a stale fusion mark is starving the data path", r.Missing)
	}
}
