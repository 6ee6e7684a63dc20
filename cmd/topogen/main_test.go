// End-to-end CLI tests, re-exec pattern: see cmd/hbhsim/main_test.go.
package main

import (
	"bytes"
	"os"
	"os/exec"
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

func TestISPTopology(t *testing.T) {
	stdout, stderr, code := runMain(t, "-topo", "isp", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "graph: 36 nodes, 48 links") {
		t.Errorf("unexpected ISP graph summary:\n%.200s", stdout)
	}
	if !strings.Contains(stdout, "R0 <-> R1") || !strings.Contains(stdout, "cost") {
		t.Errorf("missing link lines:\n%.400s", stdout)
	}
}

// TestRandomDeterministic: same seed, same graph — the generators must
// stay reproducible because every results table depends on it.
func TestRandomDeterministic(t *testing.T) {
	a, _, code := runMain(t, "-topo", "random", "-routers", "20", "-seed", "42")
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	b, _, _ := runMain(t, "-topo", "random", "-routers", "20", "-seed", "42")
	if a != b {
		t.Error("same seed produced different graphs")
	}
	c, _, _ := runMain(t, "-topo", "random", "-routers", "20", "-seed", "43")
	if a == c {
		t.Error("different seeds produced identical graphs")
	}
}

func TestUnknownTopoExits2(t *testing.T) {
	if _, _, code := runMain(t, "-topo", "torus"); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestBadFlagsExit2: a value the generator or the cost draw cannot
// take is a diagnosis, the usage and exit 2 — not a panic, which also
// exits 2, and not a NaN statistic.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-lo", "0"}, "-lo 0 -hi 10"},
		{[]string{"-lo", "5", "-hi", "2"}, "-lo 5 -hi 2"},
		{[]string{"-draws", "0"}, "-draws 0"},
		{[]string{"-topo", "random", "-routers", "0"}, "-routers 0"},
		{[]string{"-topo", "random", "-routers", "5", "-degree", "9"}, "-degree 9 impossible with 5 routers"},
		{[]string{"-topo", "line", "-routers", "0"}, "-routers 0"},
		{[]string{"-topo", "waxman", "-routers", "1"}, "-routers 1"},
		{[]string{"-topo", "ba", "-m", "-1"}, "-m -1"},
		{[]string{"-topo", "ba", "-routers", "2"}, "-routers 2"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			stdout, stderr, code := runMain(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2", code)
			}
			if strings.Contains(stderr, "panic:") {
				t.Fatalf("panicked instead of diagnosing:\n%.300s", stderr)
			}
			if !strings.Contains(stderr, "topogen: "+tc.want) || !strings.Contains(stderr, "Usage") {
				t.Errorf("stderr missing %q and the usage:\n%s", tc.want, stderr)
			}
			if stdout != "" {
				t.Errorf("printed output before rejecting the flags:\n%.200s", stdout)
			}
		})
	}
}
