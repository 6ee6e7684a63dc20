package main

import (
	"math"
	"os"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload once in -quick mode, untraced and
// traced, and checks what does not depend on timing: the outputs are
// correct (which for the sim workloads includes the exact counts pinned
// in expected.json), nothing owed is missing, and every metric that
// BENCHMARK.json names is emitted, finite and carries its unit.
func TestQuickSmoke(t *testing.T) {
	atRoot(t)
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(spec.Workloads), len(workloads()); got != want {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", got, want)
	}
	for i, w := range workloads() {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			if raceDetector && (trace || !w.sim) {
				// The detector's slowdown saturates the machine and a
				// 1 ms unit cannot be held: trees do not converge.
				// TestLiveLightLoad covers the live harness under -race.
				continue
			}
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			rep, err := runWorkload(spec, w, runCfg{seed: defaultSeed, seconds: 1, trace: trace, quick: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct {
				t.Errorf("%s trace=%v: outputs are not correct (see stderr)", w.name, trace)
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json declares %d", w.name, trace, len(rep.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := rep.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.name, trace, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, d.Name, m.Value)
				case m.Unit == "" || m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", w.name, trace, d.Name, m.Unit, d.Unit)
				case !trace && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
				}
			}
		}
	}
}

// atRoot moves to the repository root, where the driver runs the
// harness: it reads BENCHMARK.json and writes bench/out relative to it.
func atRoot(t *testing.T) {
	t.Helper()
	if _, err := os.Stat(specPath); err == nil {
		return
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
}

// TestLiveLightLoad drives every part of the live harness at once (UDP,
// the observer and its scraper goroutine, churn, link taps) at a load
// the race detector can keep up with: no owed delivery may be missing,
// rejoins must complete and the traced rounds must yield spans.
func TestLiveLightLoad(t *testing.T) {
	atRoot(t)
	spec := liveSpec{udp: true, telemetry: true, channels: 2, audience: 3, sendRate: 40, churnPerS: 6,
		awayMin: 150 * time.Millisecond, awayMax: 250 * time.Millisecond, round: 500 * time.Millisecond}
	tree, err := buildLive(spec, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.stop()
	tree.warm(200 * time.Millisecond)
	run := tree.stream(defaultSeed, 4, []bool{false, true, false, true})
	rep := run.report()
	tr := newTracer(true)
	run.spans(tr)
	if rep.failed != 0 || rep.attempted == 0 {
		t.Errorf("%d of %d owed deliveries and rejoins missing", rep.failed, rep.attempted)
	}
	if len(rep.joinMs) == 0 {
		t.Error("no rejoin completed")
	}
	if sum := tr.summary(); sum["send"].Count == 0 || sum["hop"].Count == 0 || sum["deliver"].Count == 0 {
		t.Errorf("traced rounds yielded %+v", sum)
	}
}
