package main

import (
	"encoding/json"
	"math"
	"os"
)

// expectedPath pins the simulator's exact counts for the default seed.
// The simulator is deterministic, so any difference is a behaviour
// change, not noise. Other seeds keep the structural checks only.
const expectedPath = "bench/expected.json"

// checkExpected holds a sim workload's exact outputs against the
// pinned ones. With BENCH_PIN=1 it records them instead.
func checkExpected(out *outcome, workload string, cfg runCfg, exact map[string]float64) {
	if cfg.seed != defaultSeed {
		return
	}
	key := workload
	if cfg.quick {
		key += "/quick"
	}
	pinned := map[string]map[string]float64{}
	raw, err := os.ReadFile(expectedPath)
	if err == nil {
		err = json.Unmarshal(raw, &pinned)
	}
	if os.Getenv("BENCH_PIN") == "1" {
		pinned[key] = exact
		raw, err := json.MarshalIndent(pinned, "", "  ")
		if err == nil {
			err = os.WriteFile(expectedPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			out.problemf("pinning %s: %v", expectedPath, err)
		}
		return
	}
	if err != nil {
		out.problemf("%s: %v", expectedPath, err)
		return
	}
	want, ok := pinned[key]
	if !ok {
		out.problemf("%s pins nothing for %s", expectedPath, key)
		return
	}
	for name, w := range want {
		if got, ok := exact[name]; !ok || math.Abs(got-w) > 1e-9*math.Abs(w) {
			out.problemf("%s for seed %d is %v, %s pins %v", name, cfg.seed, got, expectedPath, w)
		}
	}
	if len(want) != len(exact) {
		out.problemf("%s pins %d counts for %s, the run produced %d", expectedPath, len(want), key, len(exact))
	}
}
