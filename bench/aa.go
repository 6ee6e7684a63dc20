package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the A/A check: two interleaved sets of n runs of the same
// binary per workload, run k of either set on seed+k. It prints each
// end-to-end metric's two medians, their difference as a share of the
// first, the spread of each set, and the metric's bound, and returns
// non-zero when any metric's second median is worse than its first by
// more than the bound, or a spread (setup_s apart) exceeds it.
//
// Rule for whoever edits the benchmark: a metric that fails A/A is
// demoted to per-layer, never given a wider bound.
func runAA(spec *benchSpec, n int, seed int64, seconds float64, only string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads() {
		if only != "" && only != w.name {
			continue
		}
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for k := 0; k < n; k++ {
			for s := 0; s < 2; s++ {
				rep, err := runSelf(self, w.name, seed+int64(k), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s run %d%c: %v\n", w.name, k, 'A'+s, err)
					return 1
				}
				if !rep.Correct || rep.Failed*1000 > rep.Attempted {
					fmt.Printf("%s run %d%c: correct=%v failed=%d of %d\n", w.name, k, 'A'+s, rep.Correct, rep.Failed, rep.Attempted)
					status = 1
				}
				for name, m := range rep.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("\n%s, %d+%d runs of %.0f s, seeds %d..%d\n", w.name, n, n, seconds, seed, seed+int64(n)-1)
		fmt.Printf("%-22s %14s %14s %8s %8s %8s %6s\n", "metric", "median A", "median B", "B vs A", "iqr A", "iqr B", "bound")
		for _, d := range spec.EndToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := iqrRatio(sets[0][d.Name]), iqrRatio(sets[1][d.Name])
			verdict := ""
			if worse > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "  FAIL"
				status = 1
			}
			fmt.Printf("%-22s %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				d.Name, a, b, 100*(b-a)/a, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	return status
}

// runSelf runs one workload in a fresh process, as the driver does, and
// parses the last line it prints.
func runSelf(self, name string, seed int64, seconds float64) (*report, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("last line of output is not a result: %w", err)
	}
	return &rep, nil
}
