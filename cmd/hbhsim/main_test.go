// End-to-end CLI tests: the test binary re-executes itself with
// HBH_RUN_MAIN=1 so main() runs exactly as an installed hbhsim would
// (flag parsing, exit codes, output streams), without needing `go
// build` artifacts inside the test.
//
// The quick-mode golden tests pin the committed results/ methodology
// at a tiny run count: the full tables in results/*.txt take minutes,
// these take milliseconds and still catch any drift in the seeded
// simulation or the table formatting. Regenerate the goldens after an
// intentional change with:
//
//	HBH_UPDATE_GOLDEN=1 go test ./cmd/hbhsim/
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if os.Getenv("HBH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as hbhsim with args.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HBH_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("exec %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

func TestUnknownFigureExits2(t *testing.T) {
	_, stderr, code := runMain(t, "-figure", "nonsense")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown figure") {
		t.Errorf("stderr missing diagnosis: %q", stderr)
	}
}

func TestCSVOutputShape(t *testing.T) {
	stdout, _, code := runMain(t, "-figure", "7a", "-runs", "2", "-csv")
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if !strings.HasPrefix(stdout, "# Figure 7a") {
		t.Errorf("CSV output does not start with the figure header:\n%.200s", stdout)
	}
	if !strings.Contains(stdout, "HBH") || !strings.Contains(stdout, ",") {
		t.Errorf("CSV output missing series:\n%.200s", stdout)
	}
}

// goldenCompare checks got against the committed golden file,
// rewriting it when HBH_UPDATE_GOLDEN is set.
func goldenCompare(t *testing.T, golden, got string) {
	t.Helper()
	path := filepath.Join("..", "..", "results", "quick", golden)
	if os.Getenv("HBH_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with HBH_UPDATE_GOLDEN=1 go test ./cmd/hbhsim/): %v", golden, err)
	}
	if string(want) != got {
		t.Errorf("output drifted from %s.\nIf the change is intentional, regenerate with HBH_UPDATE_GOLDEN=1.\n--- want ---\n%s\n--- got ---\n%s", golden, want, got)
	}
}

// TestGoldenQuick pins every figure's table at a tiny run count. Each
// table must be bit-identical run to run (the simulation is
// seed-deterministic), across observability changes (the obs layer must
// not perturb results with tracing off) and at any -workers value (each
// grid folds its runs in one fixed order), so every row also runs
// single-threaded against the same golden.
func TestGoldenQuick(t *testing.T) {
	mc := []string{"-mc-channels", "12,36", "-mc-routers", "40"}
	for _, c := range []struct {
		figure, golden string
		args           []string
	}{
		{"7a", "figure7a_runs3.txt", nil},
		{"8a", "figure8a_runs3.txt", nil},
		{"paper", "paper_runs3.txt", nil},
		{"stability", "stability_runs3.txt", nil},
		{"ablation-fusion", "a1_ablation_runs3.txt", nil},
		{"unicast-clouds", "a2_clouds_runs3.txt", nil},
		{"asymmetry-sweep", "a3_asym_runs3.txt", nil},
		{"forwarding-state", "a4_state_runs3.txt", nil},
		{"control-overhead", "a5_overhead_runs3.txt", nil},
		{"qos", "a7_qos_runs3.txt", nil},
		{"cross-topo", "a8_crosstopo_runs3.txt", nil},
		{"delay-tail", "a9_delaytail_runs3.txt", nil},
		{"convergence", "convergence_runs3.txt", nil},
		{"robustness", "robustness_runs3.txt", nil},
		{"manychannel", "manychannel_quick.txt", mc},
	} {
		t.Run(c.figure, func(t *testing.T) {
			args := append([]string{"-figure", c.figure, "-runs", "3"}, c.args...)
			stdout, _, code := runMain(t, args...)
			if code != 0 {
				t.Fatalf("exit code %d, want 0", code)
			}
			goldenCompare(t, c.golden, stdout)

			serial, _, code := runMain(t, append(args, "-workers", "1")...)
			if code != 0 {
				t.Fatalf("-workers 1: exit code %d, want 0", code)
			}
			if serial != stdout {
				t.Errorf("-workers 1 output differs from the default worker count")
			}
		})
	}
}

// TestResultsRegenerate reruns every command in results/README.md and
// requires the committed table byte for byte, masking only a13's
// wall-clock and heap columns, and requires a committed table for every
// figure. It takes over an hour (a14's 10000-channel tier) and, for the
// 50k-router scale row, a GiB of heap, so it runs only with
// HBH_RESULTS_FENCE=1.
func TestResultsRegenerate(t *testing.T) {
	if os.Getenv("HBH_RESULTS_FENCE") != "1" {
		t.Skip("set HBH_RESULTS_FENCE=1 to regenerate every committed table")
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "results", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	committed := map[string]bool{}
	row := regexp.MustCompile("(?m)^\\| ([a-z0-9_]+\\.txt) \\| `hbhsim ([^`]+)` \\|")
	for _, m := range row.FindAllStringSubmatch(string(readme), -1) {
		file, args := m[1], strings.Fields(m[2])
		if i := slices.Index(args, "-figure"); i >= 0 && i+1 < len(args) {
			committed[args[i+1]] = true
		}
		t.Run(file, func(t *testing.T) {
			start := time.Now()
			got, stderr, code := runMain(t, args...)
			if code != 0 {
				t.Fatalf("hbhsim %v: exit code %d (stderr: %s)", args, code, stderr)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "results", file))
			if err != nil {
				t.Fatal(err)
			}
			if file == "a13_scale.txt" {
				got, want = maskScaleClocks(got), []byte(maskScaleClocks(string(want)))
			}
			if got != string(want) {
				t.Errorf("hbhsim %v no longer prints results/%s:\n--- committed ---\n%s\n--- now ---\n%s", args, file, want, got)
			}
			t.Logf("hbhsim %v: %v", args, time.Since(start).Round(time.Millisecond))
		})
	}
	for _, f := range figures {
		if f.partOf == "" && !committed[f.name] {
			t.Errorf("-figure %s has no committed table in results/README.md", f.name)
		}
	}
}

// maskScaleClocks blanks the gen, route-1k and heap columns of the A13
// table's rows: wall clock and heap, which no run repeats.
func maskScaleClocks(table string) string {
	lines := strings.Split(table, "\n")
	for i, ln := range lines {
		f := strings.Fields(ln)
		if len(f) != 13 || strings.Trim(f[0], "0123456789") != "" {
			continue
		}
		f[3], f[4], f[11] = "-", "-", "-"
		lines[i] = strings.Join(f, " ")
	}
	return strings.Join(lines, "\n")
}

// TestFuzzCLICampaign runs a tiny real campaign through the CLI: the
// built-in seed corpus plus a couple of mutations, expecting a clean
// exit (no invariant findings) and the campaign summary plus the
// coverage atoms on stdout.
func TestFuzzCLICampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("real fuzz campaign is slow; skipped in -short")
	}
	stdout, stderr, code := runMain(t, "-fuzz", "-fuzz-iters", "2")
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "fuzz campaign:") || !strings.Contains(stdout, "findings") {
		t.Errorf("campaign summary missing:\n%.300s", stdout)
	}
	if !strings.Contains(stdout, "HBH|kind:join-send") {
		t.Errorf("coverage atoms missing from stdout:\n%.300s", stdout)
	}
	if !strings.Contains(stderr, "seed ") {
		t.Errorf("per-seed log missing from stderr:\n%.300s", stderr)
	}
}

// TestFuzzCLIReplay replays a committed seed genome (exit 0, phase
// report on stdout) and checks the error paths exit 2.
func TestFuzzCLIReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replay runs the full adversarial engine; skipped in -short")
	}
	seed := filepath.Join("..", "..", "internal", "advfuzz", "testdata", "01-hbh-churn.genome")
	stdout, stderr, code := runMain(t, "-fuzz-replay", seed)
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr)
	}
	for _, want := range []string{"replay ", "clean:", "window:", "recovery:", "invariants: clean"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("replay report missing %q:\n%s", want, stdout)
		}
	}
	if _, _, code := runMain(t, "-fuzz-replay", filepath.Join(t.TempDir(), "missing.genome")); code != 2 {
		t.Errorf("missing repro file exit code %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.genome")
	if err := os.WriteFile(bad, []byte("not-a-knob = 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runMain(t, "-fuzz-replay", bad); code != 2 {
		t.Errorf("unparseable repro file exit code %d, want 2", code)
	}
}

// TestTraceJSONLLifecycle drives the acceptance scenario: a single ISP
// run with -trace must emit one valid JSON object per line, and one
// receiver's full protocol lifecycle — lifecycle span, join sent,
// data consumed, joining span closed — must be greppable from the
// stream by its <S,G> channel and node name alone.
func TestTraceJSONLLifecycle(t *testing.T) {
	stdout, stderr, code := runMain(t, "-trace", "-receivers", "4")
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "cost=") {
		t.Errorf("run summary missing from stderr: %q", stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) < 100 {
		t.Fatalf("suspiciously short trace: %d lines", len(lines))
	}
	type ev struct {
		Kind string `json:"kind"`
		Node string `json:"node"`
		Ch   string `json:"ch"`
	}
	var first ev // the first receiver-lifecycle span names our receiver
	kinds := map[string]bool{}
	for i, ln := range lines {
		var e ev
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, ln)
		}
		if first.Node == "" && e.Kind == "span-begin" {
			first = e
		}
		if e.Node == first.Node && e.Ch == first.Ch {
			kinds[e.Kind] = true
		}
	}
	if first.Node == "" {
		t.Fatal("no receiver-lifecycle span in the trace")
	}
	for _, want := range []string{"span-begin", "join-send", "consume", "span-end"} {
		if !kinds[want] {
			t.Errorf("receiver %s on %s: lifecycle kind %q not greppable from the stream (got %v)",
				first.Node, first.Ch, want, kinds)
		}
	}
}

// TestGoldenTraceDigests pins the HBH and REUNITE event streams event
// for event: kinds, times, nodes and the causal ep/step/pstep ids every
// JSONL line carries. The streams run to megabytes, so the golden holds
// their SHA-256 digests, one line per run, in sha256sum's format.
func TestGoldenTraceDigests(t *testing.T) {
	// The golden pins the unchecked stream: a checked run settles to its
	// fixed point before the converged check, so its stream is longer.
	t.Setenv("HBH_INVARIANT_CHECK", "")
	var b strings.Builder
	for _, proto := range []string{"HBH", "REUNITE"} {
		args := []string{"-trace", "-proto", proto, "-receivers", "4"}
		stdout, stderr, code := runMain(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit code %d, want 0 (stderr: %s)", args, code, stderr)
		}
		fmt.Fprintf(&b, "%x  hbhsim %s\n", sha256.Sum256([]byte(stdout)), strings.Join(args, " "))
	}
	goldenCompare(t, "trace_digests.txt", b.String())
}

// TestGoldenTracePIM pins the PIM-SM and PIM-SS event streams in full:
// the central build installs its trees in node order, so every run
// prints the same stream.
func TestGoldenTracePIM(t *testing.T) {
	for _, c := range []struct{ proto, golden string }{
		{"PIM-SM", "trace_pimsm.jsonl"},
		{"PIM-SS", "trace_pimss.jsonl"},
	} {
		stdout, stderr, code := runMain(t, "-trace", "-proto", c.proto, "-receivers", "4")
		if code != 0 {
			t.Fatalf("%s: exit code %d, want 0 (stderr: %s)", c.proto, code, stderr)
		}
		goldenCompare(t, c.golden, stdout)
	}
}

func TestTraceTextAndFilter(t *testing.T) {
	// An unfiltered text run to learn the channel, then a filtered one.
	stdout, _, code := runMain(t, "-trace", "-trace-format", "text", "-receivers", "2")
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if !strings.Contains(stdout, "JOIN-SEND") || !strings.Contains(stdout, "FORWARD") {
		t.Fatalf("text trace missing protocol vocabulary:\n%.300s", stdout)
	}
	ch := stdout[strings.Index(stdout, "<"):]
	ch = ch[:strings.Index(ch, ">")+1]

	filtered, _, code := runMain(t, "-trace", "-trace-format", "text", "-receivers", "2",
		"-trace-filter", ch+"/h300") // no such node: channel term still matches
	if code != 0 {
		t.Fatalf("filtered run exit code %d, want 0", code)
	}
	if len(filtered) >= len(stdout) {
		t.Errorf("filter did not narrow the stream: %d -> %d bytes", len(stdout), len(filtered))
	}

	if _, stderr, code := runMain(t, "-trace", "-trace-filter", ",,/"); code != 2 {
		t.Errorf("bad filter exit code %d, want 2 (stderr %q)", code, stderr)
	}
	if _, _, code := runMain(t, "-trace", "-trace-format", "xml"); code != 2 {
		t.Errorf("bad format exit code %d, want 2", code)
	}
	if _, _, code := runMain(t, "-trace", "-proto", "IGMP"); code != 2 {
		t.Errorf("bad protocol exit code %d, want 2", code)
	}
	if _, _, code := runMain(t, "-trace", "-topo", "torus"); code != 2 {
		t.Errorf("bad topology exit code %d, want 2", code)
	}
}

func TestObsMetricsExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.prom")
	_, stderr, code := runMain(t, "-obs-metrics", path, "-trace-out", os.DevNull, "-receivers", "6")
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{
		"# HELP hbh_sends_total",
		"# TYPE hbh_table_entries gauge",
		"hbh_joins_sent_total{",
		"hbh_data_copies_total{",
		"hbh_state_mft_entries{protocol=\"HBH\"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics export missing %q", want)
		}
	}
}
