package advfuzz

import (
	"testing"

	"hbh/internal/experiment"
)

// FuzzScenario is the scenario fuzzer: any byte string decodes to a
// valid genome, the adversarial engine runs it with the invariant
// checker attached, and any collected violation fails the input. The
// CI smoke runs it for a bounded time (-fuzz=FuzzScenario
// -fuzztime=30s); Go writes a failing input to
// testdata/fuzz/FuzzScenario/, which every go test then replays, and
// go test -run 'FuzzScenario/<name>' replays alone.
func FuzzScenario(f *testing.F) {
	for _, g := range DefaultSeeds() {
		f.Add(g.EncodeBytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := DecodeBytes(data)
		// Bound the per-input cost: the engine's run time scales with
		// the window, and go-fuzz explores inputs by the thousand.
		if g.Window > 16 {
			g.Window = 8 + g.Window%9
		}
		spec := g.Spec()
		spec.Check = true
		r := experiment.AdversarialRun(spec)
		if n := len(r.Violations); n > 0 {
			t.Fatalf("%d invariant violation(s) in %s\n"+
				"clean: time=%.1f converged=%v\n"+
				"window: disruption=%.3f\n"+
				"recovery: time=%.1f recovered=%v missing=%d duplicates=%d\n"+
				"first violation:\n%s",
				n, g, float64(r.CleanTime), r.CleanConverged, r.Disruption,
				float64(r.RecoveryTime), r.Recovered, r.Missing, r.Duplicates,
				r.Violations[0])
		}
	})
}
