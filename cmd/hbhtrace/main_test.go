// End-to-end CLI tests, re-exec pattern: see cmd/hbhsim/main_test.go.
package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("HBH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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

// TestScenarios replays each worked example and pins, per protocol,
// the outcome the paper draws from it: the REUNITE section is the
// output ahead of the "=== HBH ===" banner, the HBH section the rest.
func TestScenarios(t *testing.T) {
	for _, tc := range []struct {
		scenario     string
		want         []string
		reunite, hbh []string
		// phases, when set, are HBH tree headers after each of which
		// every member must be served at its shortest possible delay.
		phases []string
	}{
		{
			scenario: "asymmetric-join",
			want:     []string{"=== REUNITE ===", "=== HBH ===", "tree cost:"},
			// Figs. 2 and 5: REUNITE pins r2 to the join path.
			reunite: []string{"10.1.0.3 delay 5 (shortest possible 3)"},
			hbh:     []string{"10.1.0.3 delay 3 (shortest possible 3)"},
		},
		{
			scenario: "duplication",
			want:     []string{"=== REUNITE ===", "=== HBH ==="},
			// Fig. 3: REUNITE carries two copies over the A-B trunk.
			reunite: []string{"A -> B  x2", "tree cost: 7 packet copies"},
			hbh:     []string{"tree cost: 6 packet copies"},
		},
		{
			scenario: "departure",
			want:     []string{"r1 leaves the channel", "tree after departure:"},
			// Fig. 4: r1 leaving moves r2 under REUNITE only.
			reunite: []string{"r2 ROUTE CHANGED: delay 5 -> 3"},
			hbh:     []string{"r2 route unchanged (delay 3)"},
		},
		{
			scenario: "failure",
			want:     []string{"=== HBH ==="},
			// §2.2: soft state reroutes around the cut link, back onto it
			// once repaired, and rebuilds the crashed router's state.
			phases: []string{"converged tree", "tree with link A-D down:",
				"tree after link repair:", "tree after router B crash and restart:"},
		},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			stdout, stderr, code := runMain(t, "-scenario", tc.scenario)
			if code != 0 {
				t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stdout, "Topology:") {
				t.Errorf("missing topology header:\n%.200s", stdout)
			}
			for _, w := range tc.want {
				if !strings.Contains(stdout, w) {
					t.Errorf("output missing %q", w)
				}
			}
			reunite, hbh, _ := strings.Cut(stdout, "=== HBH ===")
			for _, w := range tc.reunite {
				if !strings.Contains(reunite, w) {
					t.Errorf("REUNITE section missing %q", w)
				}
			}
			for _, w := range tc.hbh {
				if !strings.Contains(hbh, w) {
					t.Errorf("HBH section missing %q", w)
				}
			}
			for i, ph := range tc.phases {
				_, tree, ok := strings.Cut(hbh, ph)
				if !ok {
					t.Errorf("HBH section missing %q", ph)
					continue
				}
				if i+1 < len(tc.phases) {
					tree, _, _ = strings.Cut(tree, tc.phases[i+1])
				}
				delays := delayLine.FindAllStringSubmatch(tree, -1)
				if len(delays) == 0 || strings.Contains(tree, "NOT SERVED") {
					t.Errorf("%s not every member served:\n%s", ph, tree)
				}
				for _, d := range delays {
					if d[1] != d[2] {
						t.Errorf("%s %s", ph, d[0])
					}
				}
			}
		})
	}
}

// delayLine matches a member's delay line: the delay the probe took and
// the shortest the member could see.
var delayLine = regexp.MustCompile(`delay (\d+) \(shortest possible (\d+)\)`)

// TestVerboseTraceRidesObsPipeline: -verbose is a TextSink on the
// observability pipeline — the packet trace must still interleave with
// the scenario narration.
func TestVerboseTraceRidesObsPipeline(t *testing.T) {
	stdout, _, code := runMain(t, "-scenario", "asymmetric-join", "-verbose")
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	for _, w := range []string{"JOIN-SEND", "FORWARD", "tree cost:"} {
		if !strings.Contains(stdout, w) {
			t.Errorf("verbose output missing %q", w)
		}
	}
}

// TestVerboseAndCausalCompose: the two flags hang their sinks off one
// observer. When -causal installed a second observer over the one
// -verbose had created, the packet trace was silently dropped.
func TestVerboseAndCausalCompose(t *testing.T) {
	stdout, stderr, code := runMain(t, "-scenario", "duplication", "-verbose", "-causal")
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr)
	}
	// Timelines render FORWARD steps too; the packet trace is what
	// streams before the first timelines section.
	live, _, _ := strings.Cut(stdout, "causal timelines:")
	if !strings.Contains(live, "FORWARD") {
		t.Error("-verbose -causal printed no packet trace (no FORWARD line ahead of the timelines)")
	}
	if !completeEpisode(stdout) {
		t.Error("-verbose -causal reconstructed no complete episode")
	}
}

// completeEpisode reports whether the output holds an
// "episode ... complete" timeline header.
func completeEpisode(stdout string) bool {
	for _, ln := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(ln, "episode ") && strings.Contains(ln, "complete") {
			return true
		}
	}
	return false
}

// goldenCompare checks got against the committed golden file,
// rewriting it when HBH_UPDATE_GOLDEN is set (same convention as
// cmd/hbhsim; regenerate with HBH_UPDATE_GOLDEN=1 go test ./cmd/hbhtrace/).
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
		t.Fatalf("missing golden %s (regenerate with HBH_UPDATE_GOLDEN=1 go test ./cmd/hbhtrace/): %v", golden, err)
	}
	if string(want) != got {
		t.Errorf("output drifted from %s.\nIf the change is intentional, regenerate with HBH_UPDATE_GOLDEN=1.\n--- want ---\n%s\n--- got ---\n%s", golden, want, got)
	}
}

// TestCausalSmoke: -causal must exit 0 and reconstruct at least one
// complete episode (the CI smoke for the causal pipeline).
func TestCausalSmoke(t *testing.T) {
	stdout, stderr, code := runMain(t, "-scenario", "duplication", "-causal")
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "causal timelines:") {
		t.Fatalf("no causal timelines section:\n%.300s", stdout)
	}
	if !completeEpisode(stdout) {
		t.Fatal("causal output reconstructed no complete episode")
	}
}

// TestGoldenCausalDuplication pins the Figure-3 acceptance criterion:
// on the asymmetric-routing duplication scenario, the HBH causal
// timeline must show r2's first join as the root of a SINGLE episode
// that contains — in causal order — the join cascade, the tree refresh
// it installs, the routers becoming branching, and the fusion rewrite
// those trees provoke. The full output is golden-tested on top of the
// structural assertions, so any drift in the reconstruction shows up
// as a reviewable diff.
func TestGoldenCausalDuplication(t *testing.T) {
	stdout, stderr, code := runMain(t, "-scenario", "duplication", "-causal")
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr)
	}

	// The HBH causal section is the one after the "=== HBH ===" banner.
	hbh := stdout[strings.Index(stdout, "=== HBH ==="):]
	// Find the episode block rooted at r2's first join.
	i := strings.Index(hbh, "episode ")
	for i >= 0 {
		header := hbh[i:]
		if strings.Contains(header[:strings.IndexByte(header, '\n')], "receiver join (first) — r2") {
			break
		}
		next := strings.Index(hbh[i+1:], "\nepisode ")
		if next < 0 {
			i = -1
			break
		}
		i += 1 + next + 1
	}
	if i < 0 {
		t.Fatalf("no HBH episode rooted at r2's first join:\n%s", hbh)
	}
	block := hbh[i:]
	if end := strings.Index(block, "\n\n"); end >= 0 {
		block = block[:end]
	}

	// The fusion rewrite is attributed to the join episode, and the
	// cascade appears in the paper's order within that one block.
	last := -1
	for _, step := range []string{
		"JOIN-SEND", "JOIN-ADMIT", "TREE-SEND", "BECOME-BRANCHING",
		"FUSION-SEND", "FUSION-ACCEPT",
	} {
		at := strings.Index(block, step)
		if at < 0 {
			t.Fatalf("r2's episode is missing %s:\n%s", step, block)
		}
		if at < last {
			t.Errorf("%s appears before the step that should precede it", step)
		}
		last = at
	}
	if !strings.Contains(block, "complete") {
		t.Error("r2's join episode is not complete")
	}

	goldenCompare(t, "trace_duplication_causal.txt", stdout)
}

func TestUnknownScenarioExits2(t *testing.T) {
	_, stderr, code := runMain(t, "-scenario", "bogus")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown scenario") {
		t.Errorf("stderr missing diagnosis: %q", stderr)
	}
}

// TestTraceFilesMergesDaemonTraces drives the cross-process mode on a
// two-file fixture shaped like two hbhd -trace-out files: the join
// originates in one daemon's file, the table installation it causes
// lives in the other, and the merged timeline must show both inside
// one episode.
func TestTraceFilesMergesDaemonTraces(t *testing.T) {
	dir := t.TempDir()
	// Causal ids in daemon-disjoint namespaces (hbhd seeds (id+1)<<40);
	// wall stamps order the merge.
	fileA := filepath.Join(dir, "r1.jsonl")
	fileB := filepath.Join(dir, "c.jsonl")
	a := `{"t":1,"wall":1000,"kind":"join-send","node":"r1","node_addr":"10.1.0.2","ch":"<10.1.0.0,224.0.0.1>","ep":1099511627777,"step":1099511627778,"detail":"first"}
{"t":1,"wall":1001,"kind":"send","node":"r1","node_addr":"10.1.0.2","ch":"<10.1.0.0,224.0.0.1>","ep":1099511627777,"step":1099511627779,"pstep":1099511627778,"msg":"hbh join(<10.1.0.0,224.0.0.1>, R=10.1.0.2) 10.1.0.2->10.1.0.0"}
`
	b := `{"t":5,"wall":2000,"kind":"table-add","node":"C","node_addr":"10.0.0.2","peer":"r1","ch":"<10.1.0.0,224.0.0.1>","ep":1099511627777,"step":3298534883329,"pstep":1099511627779,"detail":"mct"}
`
	if err := os.WriteFile(fileA, []byte(a), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fileB, []byte(b), 0o644); err != nil {
		t.Fatal(err)
	}

	stdout, stderr, code := runMain(t, "-trace-files", fileA+","+fileB)
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "cross-process causal timelines:") {
		t.Fatalf("missing header:\n%s", stdout)
	}
	if !strings.Contains(stdout, "receiver join (first) — r1") {
		t.Errorf("episode not rooted at r1's join:\n%s", stdout)
	}
	join := strings.Index(stdout, "JOIN-SEND")
	add := strings.Index(stdout, "TABLE-ADD")
	if join < 0 || add < 0 || add < join {
		t.Errorf("merged episode does not show the cross-daemon cascade in order:\n%s", stdout)
	}
}

// TestTraceFilesBadPathExits1: a missing trace file is a clean error.
func TestTraceFilesBadPathExits1(t *testing.T) {
	_, stderr, code := runMain(t, "-trace-files", filepath.Join(t.TempDir(), "nope.jsonl"))
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr, "hbhtrace:") {
		t.Errorf("stderr missing diagnosis: %q", stderr)
	}
}
