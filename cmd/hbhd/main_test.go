// End-to-end daemon tests: the test binary re-executes itself with
// HBH_RUN_MAIN=1 so main() runs exactly as an installed hbhd would —
// real flag parsing, real UDP sockets on loopback, real control
// connections — both as the daemon and as the control client. The
// multi-process test runs one daemon per Figure-3 node, which is the
// docker-compose deployment in miniature.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hbh/internal/obs"
)

func TestMain(m *testing.M) {
	if os.Getenv("HBH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freePorts reserves n distinct free ports by binding and closing
// listeners. The tiny reuse window before the daemons bind is the
// standard e2e compromise.
func freePorts(t *testing.T, n int, network string) []int {
	t.Helper()
	ports := make([]int, 0, n)
	var closers []func()
	for len(ports) < n {
		switch network {
		case "udp":
			c, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			closers = append(closers, func() { c.Close() })
			ports = append(ports, c.LocalAddr().(*net.UDPAddr).Port)
		case "tcp":
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			closers = append(closers, func() { l.Close() })
			ports = append(ports, l.Addr().(*net.TCPAddr).Port)
		}
	}
	for _, c := range closers {
		c()
	}
	return ports
}

// daemonProc is one re-executed hbhd daemon under test.
type daemonProc struct {
	cmd *exec.Cmd
	out bytes.Buffer
	ctl string
}

func startDaemon(t *testing.T, ctl string, args ...string) *daemonProc {
	t.Helper()
	d := &daemonProc{ctl: ctl}
	d.cmd = exec.Command(os.Args[0], append(args, "-ctl", ctl)...)
	d.cmd.Env = append(os.Environ(), "HBH_RUN_MAIN=1")
	d.cmd.Stdout, d.cmd.Stderr = &d.out, &d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	// Ready when the control port accepts.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c, err := net.Dial("tcp", ctl); err == nil {
			c.Close()
			return d
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never came up:\n%s", ctl, d.out.String())
	return nil
}

// ctl runs the control client (also via re-exec) against endpoint ep.
func ctl(t *testing.T, ep string, words ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-connect", ep}, words...)...)
	cmd.Env = append(os.Environ(), "HBH_RUN_MAIN=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("ctl %v: %v", words, err)
	}
	return out.String(), code
}

// ctlFast speaks the control protocol directly over TCP — the hot
// path for polling loops, where re-exec'ing the client binary per
// probe is needlessly slow under the race detector. The re-exec
// client still covers the same protocol in the join/quit steps.
func ctlFast(t *testing.T, ep, line string) string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", ep, 5*time.Second)
	if err != nil {
		t.Fatalf("ctl %s: %v", line, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintln(conn, line)
	var out bytes.Buffer
	out.ReadFrom(conn)
	return out.String()
}

var deliveriesRe = regexp.MustCompile(`receiver (\S+) joined=(\S+) deliveries=(\d+) dups=(\d+)`)

type rcvState struct{ deliveries, dups int }

// receiverStates parses a status reply into per-receiver counters.
func receiverStates(status string) map[string]rcvState {
	out := map[string]rcvState{}
	for _, m := range deliveriesRe.FindAllStringSubmatch(status, -1) {
		n, _ := strconv.Atoi(m[3])
		d, _ := strconv.Atoi(m[4])
		out[m[1]] = rcvState{deliveries: n, dups: d}
	}
	return out
}

// pump sends data through srcEp until every receiver in statusEps has
// at least min deliveries according to its status endpoint, and
// returns the final per-receiver counters.
func pump(t *testing.T, srcEp string, statusEps map[string]string, min int) map[string]rcvState {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if out := ctlFast(t, srcEp, "send e2e-payload"); !strings.HasPrefix(out, "ok") {
			t.Fatalf("send failed: %s", out)
		}
		states := map[string]rcvState{}
		done := true
		for rcv, ep := range statusEps {
			st := ctlFast(t, ep, "status")
			states[rcv] = receiverStates(st)[rcv]
			if states[rcv].deliveries < min {
				done = false
			}
		}
		if done {
			return states
		}
		if time.Now().After(deadline) {
			t.Fatal("receivers starved")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// steadyStateDupFree lets the tree settle a few refresh cycles, then
// pumps more data and requires zero NEW duplicates. Duplicates during
// join propagation are legitimate HBH transients (the paper's
// delivery property is a convergence property); duplicates in steady
// state are a bug.
func steadyStateDupFree(t *testing.T, srcEp string, statusEps map[string]string) {
	t.Helper()
	time.Sleep(600 * time.Millisecond) // >= 5 refresh cycles at -unit 1ms
	before := pump(t, srcEp, statusEps, 1)
	max := 0
	for _, s := range before {
		if s.deliveries > max {
			max = s.deliveries
		}
	}
	after := pump(t, srcEp, statusEps, max+3)
	for rcv, s := range after {
		if s.dups != before[rcv].dups {
			t.Errorf("receiver %s duplicated in steady state: %d -> %d dups",
				rcv, before[rcv].dups, s.dups)
		}
	}
}

// quitClean asks the daemon to stop and requires a zero exit.
func quitClean(t *testing.T, d *daemonProc) {
	t.Helper()
	if out, code := ctl(t, d.ctl, "quit"); code != 0 {
		t.Fatalf("quit failed: %s", out)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited dirty: %v\n%s", err, d.out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not stop after quit:\n%s", d.out.String())
	}
}

// TestE2ESingleProcess runs the whole Figure-3 topology in one daemon
// over loopback UDP with the online invariant monitor, joins both
// receivers through the control client, and requires 100% delivery
// with zero violations and a clean shutdown.
func TestE2ESingleProcess(t *testing.T) {
	ports := freePorts(t, 1, "tcp")
	udp := freePorts(t, 1, "udp")
	ctlEp := fmt.Sprintf("127.0.0.1:%d", ports[0])
	d := startDaemon(t, ctlEp,
		"-topo", "fig3", "-node", "all", "-source", "S",
		"-unit", "1ms", "-base-port", strconv.Itoa(udp[0]))
	// base-port claims 8 consecutive ports; collisions just fail the
	// daemon visibly and rerunning picks a new base.

	for _, r := range []string{"r1", "r2"} {
		if out, code := ctl(t, ctlEp, "join", r); code != 0 {
			t.Fatalf("join %s: %s", r, out)
		}
	}
	eps := map[string]string{"r1": ctlEp, "r2": ctlEp}
	pump(t, ctlEp, eps, 3)
	steadyStateDupFree(t, ctlEp, eps)

	st, _ := ctl(t, ctlEp, "status")
	if !regexp.MustCompile(`monitor violations=0`).MatchString(st) {
		t.Fatalf("monitor reported violations:\n%s\n%s", st, d.out.String())
	}
	quitClean(t, d)
}

// TestE2EMultiProcess runs one daemon per Figure-3 node — eight
// processes exchanging UDP datagrams over a shared address book file —
// and drives joins and data through the per-node control endpoints.
func TestE2EMultiProcess(t *testing.T) {
	nodes := []string{"A", "B", "C", "D", "E", "S", "r1", "r2"}
	udp := freePorts(t, len(nodes), "udp")
	tcp := freePorts(t, len(nodes), "tcp")

	book := ""
	for i, n := range nodes {
		book += fmt.Sprintf("%s 127.0.0.1:%d\n", n, udp[i])
	}
	bookPath := filepath.Join(t.TempDir(), "book.txt")
	if err := os.WriteFile(bookPath, []byte(book), 0o644); err != nil {
		t.Fatal(err)
	}

	ctlOf := map[string]string{}
	var procs []*daemonProc
	for i, n := range nodes {
		ep := fmt.Sprintf("127.0.0.1:%d", tcp[i])
		ctlOf[n] = ep
		procs = append(procs, startDaemon(t, ep,
			"-topo", "fig3", "-node", n, "-source", "S",
			"-unit", "1ms", "-book", bookPath))
	}

	for _, r := range []string{"r1", "r2"} {
		if out, code := ctl(t, ctlOf[r], "join", r); code != 0 {
			t.Fatalf("join %s: %s", r, out)
		}
	}
	eps := map[string]string{"r1": ctlOf["r1"], "r2": ctlOf["r2"]}
	pump(t, ctlOf["S"], eps, 3)
	steadyStateDupFree(t, ctlOf["S"], eps)

	for _, p := range procs {
		quitClean(t, p)
	}
}

func TestBadTopologyExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-topo", "moebius")
	cmd.Env = append(os.Environ(), "HBH_RUN_MAIN=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("err = %v, want exit 2; output %s", err, out.String())
	}
}

func TestClientRejectsEmptyCommand(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-connect", "127.0.0.1:1")
	cmd.Env = append(os.Environ(), "HBH_RUN_MAIN=1")
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("err = %v, want exit 2", err)
	}
}

// ---- telemetry plane e2e ----

// httpGet fetches one telemetry URL with a short timeout.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// pollUntil retries cond every 100ms until it holds or the deadline
// passes; on timeout it fails with the last observation.
func pollUntil(t *testing.T, what string, d time.Duration, cond func() (bool, string)) {
	t.Helper()
	deadline := time.Now().Add(d)
	last := ""
	for time.Now().Before(deadline) {
		ok, obs := cond()
		if ok {
			return
		}
		last = obs
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; last: %s", what, last)
}

// scrapeWhile fetches every url in a loop from its own goroutine — a
// Prometheus server and an operator pulling flight dumps while traffic
// flows — until the returned stop is called; stop reports the last body
// of each url. Every response must be a 200. Under -race this is what
// races Recorder.Dump and Counters.Export (both under ObsLocked)
// against the node goroutines recording and counting.
func scrapeWhile(t *testing.T, urls ...string) (stop func() map[string]string) {
	t.Helper()
	quit, done := make(chan struct{}), make(chan struct{})
	last := make(map[string]string, len(urls))
	go func() {
		defer close(done)
		client := &http.Client{Timeout: 10 * time.Second}
		for {
			for _, u := range urls {
				select {
				case <-quit:
					return
				default:
				}
				resp, err := client.Get(u)
				if err != nil {
					t.Errorf("GET %s: %v", u, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("GET %s: status %d, read error %v", u, resp.StatusCode, err)
					return
				}
				last[u] = string(body)
			}
		}
	}()
	return func() map[string]string {
		close(quit)
		<-done
		return last
	}
}

var metricRe = regexp.MustCompile(`(?m)^(hbh_[a-z_]+)(\{[^}]*\})? ([0-9.e+-]+)$`)

// metricValue extracts one sample value from a /metrics scrape.
func metricValue(scrape, name, labels string) (float64, bool) {
	for _, m := range metricRe.FindAllStringSubmatch(scrape, -1) {
		if m[1] == name && m[2] == labels {
			v, err := strconv.ParseFloat(m[3], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestE2ETelemetryMultiProcess is the tentpole acceptance run: eight
// hbhd processes, one per Figure-3 node, each with its own telemetry
// endpoint and JSONL trace file. It requires (1) a valid Prometheus
// scrape with nonzero wall-clock delivery-delay histogram counts at a
// receiving daemon, (2) the hbh_converged gauge reaching 1 and /readyz
// turning 200 on all eight daemons, (3) a filtered live /trace stream
// of parseable JSONL, and (4) — after the daemons exit — a merged
// cross-process causal timeline in which r1's first-join episode spans
// events from at least two processes.
func TestE2ETelemetryMultiProcess(t *testing.T) {
	nodes := []string{"A", "B", "C", "D", "E", "S", "r1", "r2"}
	udp := freePorts(t, len(nodes), "udp")
	tcp := freePorts(t, 2*len(nodes), "tcp")

	book := ""
	for i, n := range nodes {
		book += fmt.Sprintf("%s 127.0.0.1:%d\n", n, udp[i])
	}
	dir := t.TempDir()
	bookPath := filepath.Join(dir, "book.txt")
	if err := os.WriteFile(bookPath, []byte(book), 0o644); err != nil {
		t.Fatal(err)
	}

	ctlOf, telOf, traceOf := map[string]string{}, map[string]string{}, map[string]string{}
	var procs []*daemonProc
	for i, n := range nodes {
		ctlOf[n] = fmt.Sprintf("127.0.0.1:%d", tcp[i])
		telOf[n] = fmt.Sprintf("127.0.0.1:%d", tcp[len(nodes)+i])
		traceOf[n] = filepath.Join(dir, n+".jsonl")
		procs = append(procs, startDaemon(t, ctlOf[n],
			"-topo", "fig3", "-node", n, "-source", "S",
			"-unit", "1ms", "-book", bookPath,
			"-telemetry", telOf[n], "-trace-out", traceOf[n]))
	}

	for _, r := range []string{"r1", "r2"} {
		if out, code := ctl(t, ctlOf[r], "join", r); code != 0 {
			t.Fatalf("join %s: %s", r, out)
		}
	}
	eps := map[string]string{"r1": ctlOf["r1"], "r2": ctlOf["r2"]}
	// Scraped while the tree forms and data flows: a receiver's and a
	// mid-path router's flight dump and metrics.
	flightR1, flightB := "http://"+telOf["r1"]+"/flight/r1", "http://"+telOf["B"]+"/flight/B"
	stopScrape := scrapeWhile(t, flightR1, "http://"+telOf["r1"]+"/metrics",
		flightB, "http://"+telOf["B"]+"/metrics")
	pump(t, ctlOf["S"], eps, 10)
	scraped := stopScrape()
	if !strings.Contains(scraped[flightR1], "r1 CONSUME none data(") {
		t.Errorf("r1's flight dump, scraped mid-stream, shows no data delivery:\n%s", scraped[flightR1])
	}
	if !strings.Contains(scraped[flightB], "B FORWARD->") {
		t.Errorf("B's flight dump, scraped mid-stream, shows no forwarding:\n%s", scraped[flightB])
	}

	// (1) The receiving daemon measured end-to-end delivery delays from
	// the frame origination stamps its packets carried across UDP.
	code, scrape := httpGet(t, "http://"+telOf["r1"]+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if err := obs.ValidatePromText(strings.NewReader(scrape)); err != nil {
		t.Errorf("scrape is not valid Prometheus text: %v", err)
	}
	if v, ok := metricValue(scrape, "hbh_delivery_delay_count", ""); !ok || v < 3 {
		t.Errorf("hbh_delivery_delay_count = %v (present=%v), want >= 3", v, ok)
	}
	// A mid-path router measured per-hop wall delays.
	_, scrapeB := httpGet(t, "http://"+telOf["B"]+"/metrics")
	if v, ok := metricValue(scrapeB, "hbh_hop_delay_count", ""); !ok || v == 0 {
		t.Errorf("router B hbh_hop_delay_count = %v (present=%v), want > 0", v, ok)
	}

	// (2) Convergence: one soft-state generation after its last
	// mutation, the probe marks the channel quiescent and the gauge
	// flips to 1 on every daemon, routers included; each is then
	// healthy and ready.
	for _, n := range nodes {
		n := n
		pollUntil(t, "hbh_converged=1 at "+n, 60*time.Second, func() (bool, string) {
			_, s := httpGet(t, "http://"+telOf[n]+"/metrics")
			i := strings.Index(s, "hbh_converged{")
			if i < 0 {
				return false, "no hbh_converged sample"
			}
			line := s[i:]
			if j := strings.IndexByte(line, '\n'); j > 0 {
				line = line[:j]
			}
			return strings.HasSuffix(line, " 1"), line
		})
		if code, body := httpGet(t, "http://"+telOf[n]+"/healthz"); code != 200 {
			t.Errorf("healthz at %s = %d (%s) after convergence", n, code, body)
		}
		if code, body := httpGet(t, "http://"+telOf[n]+"/readyz"); code != 200 {
			t.Errorf("readyz at %s = %d (%s) after convergence", n, code, body)
		}
	}

	// (3) Live filtered trace: r1's refresh chatter keeps flowing, so a
	// few lines arrive quickly; each must be valid JSON naming r1.
	traceLines := streamTrace(t, "http://"+telOf["r1"]+"/trace?filter=r1", 3)
	for _, ln := range traceLines {
		var parsed map[string]any
		if err := json.Unmarshal([]byte(ln), &parsed); err != nil {
			t.Fatalf("trace line is not JSON: %v\n%s", err, ln)
		}
		if parsed["node"] != "r1" && parsed["peer"] != "r1" {
			t.Errorf("filtered trace leaked a foreign event: %s", ln)
		}
		if _, ok := parsed["wall"]; !ok {
			t.Errorf("trace line missing wall stamp: %s", ln)
		}
	}

	for _, p := range procs {
		quitClean(t, p)
	}

	// (4) Merge the per-daemon trace files into one causal timeline:
	// r1's first-join episode must contain steps that executed in other
	// processes (the forward at C, the admit at S).
	var paths []string
	for _, n := range nodes {
		paths = append(paths, traceOf[n])
	}
	builder, err := obs.LoadCausalFiles(paths)
	if err != nil {
		t.Fatalf("merging traces: %v", err)
	}
	render := builder.Render()
	block := episodeBlock(t, render, "receiver join (first) — r1")
	for _, step := range []string{"r1 JOIN-SEND", "C FORWARD->B", "S JOIN-ADMIT"} {
		if !strings.Contains(block, step) {
			t.Errorf("r1's cross-process episode is missing %q:\n%s", step, block)
		}
	}
}

// streamTrace reads n lines from a live /trace stream.
func streamTrace(t *testing.T, url string, n int) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var lines []string
	for len(lines) < n && sc.Scan() {
		if ln := strings.TrimSpace(sc.Text()); ln != "" {
			lines = append(lines, ln)
		}
	}
	if len(lines) < n {
		t.Fatalf("trace stream yielded %d lines, want %d (scan err %v)", len(lines), n, sc.Err())
	}
	return lines
}

// episodeBlock extracts the rendered episode whose header contains
// root, up to the next blank line.
func episodeBlock(t *testing.T, render, root string) string {
	t.Helper()
	for _, block := range strings.Split(render, "\n\n") {
		if i := strings.Index(block, "episode "); i >= 0 {
			header := block[i:]
			if j := strings.IndexByte(header, '\n'); j > 0 {
				header = header[:j]
			}
			if strings.Contains(header, root) {
				return block
			}
		}
	}
	t.Fatalf("no episode rooted at %q in:\n%s", root, render)
	return ""
}

// TestE2ETelemetryHealthFault forces a link fault on r1's only access
// link and requires /healthz to flip unready while the tree churns,
// then recover once the fault heals and the tree re-converges.
func TestE2ETelemetryHealthFault(t *testing.T) {
	tcp := freePorts(t, 2, "tcp")
	udp := freePorts(t, 1, "udp")
	ctlEp := fmt.Sprintf("127.0.0.1:%d", tcp[0])
	telEp := fmt.Sprintf("127.0.0.1:%d", tcp[1])
	d := startDaemon(t, ctlEp,
		"-topo", "fig3", "-node", "all", "-source", "S",
		"-unit", "1ms", "-base-port", strconv.Itoa(udp[0]),
		"-telemetry", telEp)

	if out, code := ctl(t, ctlEp, "join", "r1"); code != 0 {
		t.Fatalf("join r1: %s", out)
	}
	// One process hosts every node here, so one emission lock carries
	// all their events: scrape a dump and the registry through it while
	// the first packets flow.
	stopScrape := scrapeWhile(t, "http://"+telEp+"/flight/A", "http://"+telEp+"/metrics")
	pump(t, ctlEp, map[string]string{"r1": ctlEp}, 5)
	stopScrape()

	health := func() (int, string) { return httpGet(t, "http://"+telEp+"/healthz") }
	pollUntil(t, "healthz 200 after join settles", 60*time.Second, func() (bool, string) {
		code, body := health()
		return code == 200, fmt.Sprintf("%d %s", code, body)
	})

	// Cut r1's only access link: join refreshes die on it, the soft
	// state upstream expires, and the resulting table churn must
	// withdraw convergence.
	if out := ctlFast(t, ctlEp, "fault link C r1 down"); !strings.HasPrefix(out, "ok") {
		t.Fatalf("fault down: %s", out)
	}
	pollUntil(t, "healthz 503 during the fault", 60*time.Second, func() (bool, string) {
		code, body := health()
		return code == 503, fmt.Sprintf("%d %s", code, body)
	})

	if out := ctlFast(t, ctlEp, "fault link C r1 up"); !strings.HasPrefix(out, "ok") {
		t.Fatalf("fault up: %s", out)
	}
	pollUntil(t, "healthz 200 after the heal", 60*time.Second, func() (bool, string) {
		code, body := health()
		return code == 200, fmt.Sprintf("%d %s", code, body)
	})

	// The fault itself is visible in the metrics' drop counters.
	_, scrape := httpGet(t, "http://"+telEp+"/metrics")
	if !strings.Contains(scrape, `cause="link-down"`) {
		t.Error("no link-down drop sample in hbh_drops_total after the fault")
	}

	// The runtime's transport counters: nothing failed to send, and a
	// datagram that is no frame is rejected and counted, not lost.
	if v, ok := metricValue(scrape, "hbh_transport_send_errors_total", ""); !ok || v != 0 {
		t.Errorf("hbh_transport_send_errors_total = %v (present=%v), want 0", v, ok)
	}
	if v, ok := metricValue(scrape, "hbh_frame_decode_rejects_total", ""); !ok || v != 0 {
		t.Errorf("hbh_frame_decode_rejects_total = %v (present=%v), want 0 before the garbage", v, ok)
	}
	garbage, err := net.Dial("udp", fmt.Sprintf("127.0.0.1:%d", udp[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer garbage.Close()
	pollUntil(t, "a rejected frame on /metrics", 10*time.Second, func() (bool, string) {
		if _, err := garbage.Write([]byte("not a frame")); err != nil {
			return false, err.Error()
		}
		_, s := httpGet(t, "http://"+telEp+"/metrics")
		v, _ := metricValue(s, "hbh_frame_decode_rejects_total", "")
		return v >= 1, fmt.Sprintf("rejects=%v", v)
	})
	quitClean(t, d)
}

// TestTelemetryMetricsGolden pins the deterministic subset of a
// converged daemon's /metrics scrape: the HELP/TYPE contract for the
// always-present metrics and the converged gauge sample. Regenerate
// with HBH_UPDATE_GOLDEN=1.
func TestTelemetryMetricsGolden(t *testing.T) {
	tcp := freePorts(t, 2, "tcp")
	udp := freePorts(t, 1, "udp")
	ctlEp := fmt.Sprintf("127.0.0.1:%d", tcp[0])
	telEp := fmt.Sprintf("127.0.0.1:%d", tcp[1])
	d := startDaemon(t, ctlEp,
		"-topo", "fig3", "-node", "all", "-source", "S",
		"-unit", "1ms", "-base-port", strconv.Itoa(udp[0]),
		"-telemetry", telEp)

	for _, r := range []string{"r1", "r2"} {
		if out, code := ctl(t, ctlEp, "join", r); code != 0 {
			t.Fatalf("join %s: %s", r, out)
		}
	}
	pump(t, ctlEp, map[string]string{"r1": ctlEp, "r2": ctlEp}, 1)
	pollUntil(t, "converged gauge", 60*time.Second, func() (bool, string) {
		_, s := httpGet(t, "http://"+telEp+"/metrics")
		return strings.Contains(s, "hbh_converged{channel=\"<10.1.0.0,224.0.0.1>\"} 1"), "still 0"
	})

	_, scrape := httpGet(t, "http://"+telEp+"/metrics")
	if err := obs.ValidatePromText(strings.NewReader(scrape)); err != nil {
		t.Fatalf("scrape is not valid Prometheus text: %v", err)
	}
	// Only metrics a converged Figure-3 run always produces: timing
	// and fusion races make the rarer counters (collapse, intercepts)
	// appear in some runs and not others, so they stay out of the pin.
	always := map[string]bool{
		"hbh_sends_total": true, "hbh_forwards_total": true,
		"hbh_deliveries_total": true, "hbh_joins_sent_total": true,
		"hbh_joins_admitted_total": true, "hbh_trees_sent_total": true,
		"hbh_table_entries": true, "hbh_delivery_delay": true,
		"hbh_hop_delay": true, "hbh_join_first_delay": true,
		"hbh_converge_time": true, "hbh_converged": true,
	}
	var subset []string
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			if always[strings.Fields(line)[2]] {
				subset = append(subset, line)
			}
		} else if strings.HasPrefix(line, "hbh_converged{") {
			subset = append(subset, line)
		}
	}
	got := strings.Join(subset, "\n") + "\n"

	path := filepath.Join("..", "..", "results", "quick", "hbhd_metrics_subset.txt")
	if os.Getenv("HBH_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (regenerate with HBH_UPDATE_GOLDEN=1 go test ./cmd/hbhd/): %v", err)
		}
		if string(want) != got {
			t.Errorf("metrics contract drifted.\nIf intentional, regenerate with HBH_UPDATE_GOLDEN=1.\n--- want ---\n%s\n--- got ---\n%s", want, got)
		}
	}
	quitClean(t, d)
}

// TestTelemetryOffDisablesEndpoint: -telemetry off must not bind a
// port or break the daemon.
func TestTelemetryOffDisablesEndpoint(t *testing.T) {
	tcp := freePorts(t, 1, "tcp")
	udp := freePorts(t, 1, "udp")
	ctlEp := fmt.Sprintf("127.0.0.1:%d", tcp[0])
	d := startDaemon(t, ctlEp,
		"-topo", "fig3", "-node", "all", "-source", "S",
		"-unit", "1ms", "-base-port", strconv.Itoa(udp[0]),
		"-telemetry", "off")
	if out, code := ctl(t, ctlEp, "join", "r1"); code != 0 {
		t.Fatalf("join r1: %s", out)
	}
	st := ctlFast(t, ctlEp, "status")
	if !strings.Contains(st, "metrics forwards=") || !strings.Contains(st, "channel <") {
		t.Errorf("status is missing the telemetry summary:\n%s", st)
	}
	quitClean(t, d)
}
