// Command hbhd runs HBH routers live: one process hosts one node (or
// any subset, up to the whole topology) of a shared scenario, the
// protocol engines run on their own goroutines against the wall
// clock, and packets travel as UDP datagrams between processes. The
// engines are the exact state machines the simulator executes — the
// live runtime is proven equivalent to the event simulation by test
// (internal/live) — so hbhd is the deployment face of the same
// implementation.
//
// Daemon mode:
//
//	hbhd -topo fig3 -node A -source S -book book.txt -ctl 127.0.0.1:7701
//	hbhd -topo fig3 -node all -source S              # whole topology, loopback
//
// Every process must agree on -topo, -source and -group (they define
// the channel identity), and on the address book. The book file maps
// node names to UDP endpoints, one "name host:port" pair per line;
// without -book every node defaults to 127.0.0.1:(base-port+id),
// which runs a whole topology on loopback out of the box.
//
// Control-client mode (one command per invocation, printed response):
//
//	hbhd -connect 127.0.0.1:7701 join r1
//	hbhd -connect 127.0.0.1:7701 status
//	hbhd -connect 127.0.0.1:7700 send hello
//	hbhd -connect 127.0.0.1:7700 fault link A B down
//	hbhd -connect 127.0.0.1:7700 quit
//
// Commands: join/leave <host-node>, send <payload>, status,
// fault link <a> <b> down|up, fault node <n> down|up, quit.
//
// Every daemon also serves a telemetry HTTP endpoint (-telemetry,
// default an ephemeral loopback port, printed at startup): /metrics
// (Prometheus text, including wall-clock latency histograms and the
// per-channel hbh_converged gauge), /healthz and /readyz
// (tree-convergence-aware), /debug/pprof/*, /flight/<node>
// (flight-recorder dump) and /trace (live JSONL stream, ?filter=
// accepts the -trace-filter spec language). -trace-out writes the
// daemon's own JSONL trace with wall-clock stamps; feed the files of
// several daemons to `hbhtrace -trace-files` to reconstruct causal
// episodes that span processes. See examples/live/ for a
// docker-compose mini-internet running one router per container with
// a Prometheus scraping all of them.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/invariant"
	"hbh/internal/live"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

func main() {
	var (
		topoF     = flag.String("topo", "fig3", "scenario topology: fig3, isp, line:N")
		nodeF     = flag.String("node", "all", "comma-separated node names this process hosts, or 'all'")
		bookF     = flag.String("book", "", "address book file: one 'name host:port' per line (default: loopback at base-port+id)")
		basePort  = flag.Int("base-port", 7800, "first UDP port of the default loopback address book")
		unitF     = flag.Duration("unit", 10*time.Millisecond, "real duration of one virtual time unit (link cost 1 = one unit)")
		sourceF   = flag.String("source", "", "node name rooting the channel (default: first host in the topology)")
		groupF    = flag.Int("group", 0, "multicast group number of the channel")
		ctlF      = flag.String("ctl", "127.0.0.1:7700", "TCP endpoint of the control listener")
		monitorF  = flag.Bool("monitor", true, "run the online structural invariant monitor (only possible when hosting the whole topology)")
		connectF  = flag.String("connect", "", "control-client mode: send the remaining arguments as one command to a daemon at this endpoint")
		telemF    = flag.String("telemetry", "127.0.0.1:0", "HTTP endpoint for /metrics, /healthz, /readyz, /debug/pprof, /flight, /trace; 'off' disables")
		traceOutF = flag.String("trace-out", "", "write this daemon's JSONL event trace (with wall-clock stamps) to a file, mergeable across daemons by hbhtrace -trace-files")
	)
	flag.Parse()

	if *connectF != "" {
		os.Exit(runClient(*connectF, flag.Args()))
	}
	os.Exit(runDaemon(daemonConfig{
		topo: *topoF, nodes: *nodeF, book: *bookF, basePort: *basePort,
		unit: *unitF, source: *sourceF, group: *groupF, ctl: *ctlF,
		monitor: *monitorF, telemetry: *telemF, traceOut: *traceOutF,
	}))
}

// runClient sends one command line and streams the response.
func runClient(ep string, words []string) int {
	if len(words) == 0 {
		fmt.Fprintln(os.Stderr, "hbhd: -connect needs a command (join/leave/send/status/quit)")
		return 2
	}
	conn, err := net.DialTimeout("tcp", ep, 5*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbhd: %v\n", err)
		return 1
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintln(conn, strings.Join(words, " ")); err != nil {
		fmt.Fprintf(os.Stderr, "hbhd: %v\n", err)
		return 1
	}
	reply, err := io.ReadAll(conn)
	os.Stdout.Write(reply)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbhd: %v\n", err)
		return 1
	}
	if strings.HasPrefix(string(reply), "err") {
		return 1
	}
	return 0
}

type daemonConfig struct {
	topo, nodes, book, source, ctl string
	basePort, group                int
	unit                           time.Duration
	monitor                        bool
	telemetry, traceOut            string
}

// daemon is the running state the control server acts on.
type daemon struct {
	cfg   daemonConfig
	g     *topology.Graph
	rt    *live.Runtime
	names map[string]topology.NodeID

	src       *core.Source
	srcHost   topology.NodeID
	receivers map[topology.NodeID]*core.Receiver
	chk       *invariant.Checker // nil unless monitoring

	// The always-on telemetry pipeline: one observer per daemon, its
	// counters/latency/convergence registries scraped by the HTTP
	// endpoints and the status command through Runtime.ObsLocked.
	obsv      *obs.Observer
	counters  *obs.Counters
	lat       *obs.Latency
	conv      *obs.ConvergeTracker
	pcfg      core.Config
	ch        addr.Channel
	traceFile *os.File
	probed    bool // guarded by the emission lock (ObsLocked)

	chkMu sync.Mutex
	quit  chan struct{}
	once  sync.Once
}

func runDaemon(cfg daemonConfig) int {
	d, err := newDaemon(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbhd: %v\n", err)
		return 2
	}
	ln, err := net.Listen("tcp", cfg.ctl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbhd: control listener: %v\n", err)
		return 1
	}
	fmt.Printf("hbhd: hosting %s of %s, ctl %s\n",
		hostedNames(d), cfg.topo, ln.Addr())

	var tel *telemetry
	if cfg.telemetry != "off" {
		tel, err = startTelemetry(d, cfg.telemetry)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbhd: %v\n", err)
			ln.Close()
			d.rt.Stop()
			return 1
		}
		fmt.Printf("hbhd: telemetry http://%s\n", tel.ln.Addr())
	}
	go d.probeLoop()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
		case <-d.quit:
		}
		ln.Close()
	}()

	if d.chk != nil {
		go d.monitorLoop()
	}

	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed: shutting down
		}
		go d.serve(conn)
	}
	if tel != nil {
		tel.close()
	}
	d.rt.Stop()
	if d.traceFile != nil {
		d.traceFile.Close() // emission has quiesced; the trace is complete
	}
	fmt.Println("hbhd: stopped")
	return 0
}

func newDaemon(cfg daemonConfig) (*daemon, error) {
	g, err := buildTopo(cfg.topo)
	if err != nil {
		return nil, err
	}
	names := make(map[string]topology.NodeID, g.NumNodes())
	for id := 0; id < g.NumNodes(); id++ {
		names[g.Node(topology.NodeID(id)).Name] = topology.NodeID(id)
	}

	hosted, err := parseHosted(cfg.nodes, g, names)
	if err != nil {
		return nil, err
	}
	srcHost, err := pickSource(cfg.source, g, names)
	if err != nil {
		return nil, err
	}

	rt := live.New(live.Config{
		Graph:   g,
		Routing: unicast.Compute(g),
		Unit:    cfg.unit,
		Hosted:  hosted,
	})

	d := &daemon{
		cfg: cfg, g: g, rt: rt, names: names, srcHost: srcHost,
		receivers: make(map[topology.NodeID]*core.Receiver),
		quit:      make(chan struct{}),
	}

	pcfg := core.DefaultConfig()
	ch, err := addr.NewChannel(g.Node(srcHost).Addr, addr.GroupAddr(cfg.group))
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	d.pcfg, d.ch = pcfg, ch
	var routers []*core.Router
	hostedSet := make(map[topology.NodeID]bool, len(rt.Hosted()))
	for _, id := range rt.Hosted() {
		hostedSet[id] = true
	}
	for _, id := range rt.Hosted() {
		n := g.Node(id)
		switch {
		case n.Kind == topology.Router:
			routers = append(routers, core.AttachRouter(rt.Node(id), pcfg))
		case id == srcHost:
			d.src = core.AttachSource(rt.Node(id), addr.GroupAddr(cfg.group), pcfg)
		default:
			d.receivers[id] = core.AttachReceiver(rt.Node(id), ch, pcfg)
		}
	}

	if cfg.monitor && len(rt.Hosted()) == g.NumNodes() && d.src != nil {
		d.chk = invariant.New(rt, ch, invariant.Config{Structural: true},
			core.NewAudit(d.src, routers))
	}

	book := make(map[topology.NodeID]string, g.NumNodes())
	if cfg.book != "" {
		if err := readBook(cfg.book, names, book); err != nil {
			return nil, err
		}
	} else {
		for id := 0; id < g.NumNodes(); id++ {
			book[topology.NodeID(id)] = fmt.Sprintf("127.0.0.1:%d", cfg.basePort+id)
		}
	}
	if err := d.attachObserver(); err != nil {
		return nil, err
	}

	trans, err := live.NewUDPTransport(rt.Hosted(), book, rt.HandleFrame)
	if err != nil {
		return nil, err
	}
	rt.SetTransport(trans)
	rt.Start()
	return d, nil
}

// attachObserver builds the daemon's always-on telemetry pipeline:
// counters, wall-clock latency histograms, the convergence tracker, a
// flight recorder, and (with -trace-out) a wall-stamped JSONL trace
// file. The causal id namespace is seeded from the lowest hosted node
// ID so episodes stamped by different daemons never collide when their
// trace files are merged into one cross-process timeline.
func (d *daemon) attachObserver() error {
	o := obs.New(nil) // SetObserver rebinds the runtime's clock
	d.obsv = o
	d.counters = o.EnableCounters()
	d.lat = o.EnableLatency()
	d.conv = o.EnableConvergence()
	o.EnableRecorder(256)

	minID := d.rt.Hosted()[0]
	for _, id := range d.rt.Hosted() {
		if id < minID {
			minID = id
		}
	}
	o.SeedCausal((uint64(minID) + 1) << 40)

	if d.cfg.traceOut != "" {
		f, err := os.Create(d.cfg.traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		d.traceFile = f
		sink := obs.NewJSONLSink(f)
		sink.Wall = func() int64 { return time.Now().UnixNano() }
		o.AddSink(sink)
	}
	d.rt.SetObserver(o)
	return nil
}

func buildTopo(name string) (*topology.Graph, error) {
	switch {
	case name == "fig3":
		return topology.Fig3Scenario().Graph, nil
	case name == "isp":
		return topology.ISP(), nil
	case strings.HasPrefix(name, "line:"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "line:"))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad line topology %q", name)
		}
		return topology.Line(n, true), nil
	}
	return nil, fmt.Errorf("unknown topology %q (fig3, isp, line:N)", name)
}

func parseHosted(spec string, g *topology.Graph, names map[string]topology.NodeID) ([]topology.NodeID, error) {
	if spec == "all" || spec == "" {
		return nil, nil // live.Config nil = host everything
	}
	var out []topology.NodeID
	for _, w := range strings.Split(spec, ",") {
		w = strings.TrimSpace(w)
		id, ok := names[w]
		if !ok {
			return nil, fmt.Errorf("unknown node %q", w)
		}
		out = append(out, id)
	}
	return out, nil
}

func pickSource(name string, g *topology.Graph, names map[string]topology.NodeID) (topology.NodeID, error) {
	if name == "" {
		hosts := g.Hosts()
		if len(hosts) == 0 {
			return 0, fmt.Errorf("topology has no hosts to root the channel at")
		}
		return hosts[0], nil
	}
	id, ok := names[name]
	if !ok {
		return 0, fmt.Errorf("unknown source node %q", name)
	}
	if g.Node(id).Kind != topology.Host {
		return 0, fmt.Errorf("source %q is not a host", name)
	}
	return id, nil
}

func readBook(path string, names map[string]topology.NodeID, book map[topology.NodeID]string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("%s:%d: want 'name host:port'", path, ln+1)
		}
		id, ok := names[fields[0]]
		if !ok {
			return fmt.Errorf("%s:%d: unknown node %q", path, ln+1, fields[0])
		}
		book[id] = fields[1]
	}
	return nil
}

func hostedNames(d *daemon) string {
	var ns []string
	for _, id := range d.rt.Hosted() {
		ns = append(ns, d.g.Node(id).Name)
	}
	sort.Strings(ns)
	if len(ns) == d.g.NumNodes() {
		return "all nodes"
	}
	return strings.Join(ns, ",")
}

// monitorLoop takes a stop-the-world structural cut once per second
// and logs any fresh violations.
func (d *daemon) monitorLoop() {
	reported := 0
	for {
		select {
		case <-d.quit:
			return
		case <-time.After(time.Second):
		}
		d.chkMu.Lock()
		d.rt.Quiesce(d.chk.CheckStructural)
		vs := d.chk.Violations()
		for ; reported < len(vs); reported++ {
			fmt.Fprintf(os.Stderr, "hbhd: INVARIANT VIOLATION: %s\n", vs[reported].String())
		}
		d.chkMu.Unlock()
	}
}

// serve handles one control connection: one command line, one reply.
func (d *daemon) serve(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil && line == "" {
		return
	}
	words := strings.Fields(line)
	if len(words) == 0 {
		fmt.Fprintln(conn, "err empty command")
		return
	}
	switch words[0] {
	case "join", "leave":
		if len(words) != 2 {
			fmt.Fprintf(conn, "err usage: %s <host-node>\n", words[0])
			return
		}
		id, ok := d.names[words[1]]
		if !ok {
			fmt.Fprintf(conn, "err unknown node %q\n", words[1])
			return
		}
		rcv, ok := d.receivers[id]
		if !ok {
			fmt.Fprintf(conn, "err node %q is not a receiver hosted here\n", words[1])
			return
		}
		d.rt.Do(id, func() {
			if words[0] == "join" {
				rcv.Join()
			} else {
				rcv.Leave()
			}
		})
		fmt.Fprintln(conn, "ok")
	case "send":
		if d.src == nil {
			fmt.Fprintln(conn, "err source is not hosted here")
			return
		}
		payload := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "send"))
		var seq uint32
		d.rt.Do(d.srcHost, func() { seq = d.src.SendData([]byte(payload)) })
		fmt.Fprintf(conn, "ok seq=%d\n", seq)
	case "fault":
		fmt.Fprint(conn, d.fault(words[1:]))
	case "status":
		fmt.Fprint(conn, d.status())
	case "quit":
		fmt.Fprintln(conn, "ok stopping")
		d.once.Do(func() { close(d.quit) })
	default:
		fmt.Fprintf(conn, "err unknown command %q\n", words[0])
	}
}

// fault toggles the runtime fault overlay: "link <a> <b> down|up" or
// "node <n> down|up". Only this daemon's overlay changes — in a
// multi-daemon deployment, apply the fault at every process whose
// traffic should die on it.
func (d *daemon) fault(words []string) string {
	usage := "err usage: fault link <a> <b> down|up | fault node <n> down|up\n"
	resolve := func(name string) (topology.NodeID, bool) {
		id, ok := d.names[name]
		return id, ok
	}
	switch {
	case len(words) == 4 && words[0] == "link" && (words[3] == "down" || words[3] == "up"):
		a, okA := resolve(words[1])
		b, okB := resolve(words[2])
		if !okA || !okB {
			return fmt.Sprintf("err unknown node in %q\n", strings.Join(words, " "))
		}
		if !d.g.HasLink(a, b) {
			return fmt.Sprintf("err no link %s-%s\n", words[1], words[2])
		}
		d.rt.SetLinkUp(a, b, words[3] == "up")
		d.noteFault(fmt.Sprintf("fault: link %s-%s %s", words[1], words[2], words[3]))
		return "ok\n"
	case len(words) == 3 && words[0] == "node" && (words[2] == "down" || words[2] == "up"):
		id, ok := resolve(words[1])
		if !ok {
			return fmt.Sprintf("err unknown node %q\n", words[1])
		}
		d.rt.SetNodeUp(id, words[2] == "up")
		d.noteFault(fmt.Sprintf("fault: node %s %s", words[1], words[2]))
		return "ok\n"
	}
	return usage
}

// noteFault pushes the fault into the event stream so traces and the
// flight recorder show it inline with the packet flow it perturbs.
func (d *daemon) noteFault(detail string) {
	d.rt.ObsLocked(func() {
		d.obsv.EmitLocked(&obs.Event{Kind: obs.KindFault, Detail: detail})
	})
}

// status renders a consistent snapshot of everything hosted here.
func (d *daemon) status() string {
	var b strings.Builder
	fmt.Fprintf(&b, "topo %s hosted %s now %.1f\n", d.cfg.topo, hostedNames(d), float64(d.rt.Now()))
	d.rt.Quiesce(func() {
		if d.src != nil {
			fmt.Fprintf(&b, "source %s mft=%s\n", d.g.Node(d.srcHost).Name, d.src.MFT().String())
		}
		var ids []topology.NodeID
		for id := range d.receivers {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			r := d.receivers[id]
			fmt.Fprintf(&b, "receiver %s joined=%v deliveries=%d dups=%d\n",
				d.g.Node(id).Name, r.Joined(), len(r.Deliveries), r.DupCount)
		}
	})
	st := d.rt.Stats()
	fmt.Fprintf(&b, "stats transmissions=%d data=%d consumed=%d drops=%d\n",
		st.Transmissions, st.DataCopies, st.DataConsumed,
		st.HopLimitDrops+st.NoRouteDrops+st.LinkDownDrops+st.NodeDownDrops+st.CodecDrops+st.SendErrors)
	// The same registries /metrics scrapes, in one-screen form.
	d.rt.ObsLocked(func() {
		fmt.Fprintf(&b, "metrics forwards=%.0f drops=%.0f delivery_n=%d delivery_p50=%.6gs delivery_p99=%.6gs\n",
			d.counters.Total("hbh_forwards_total"), d.counters.Total("hbh_drops_total"),
			d.lat.Delivery.Count(), d.lat.Delivery.Quantile(0.5), d.lat.Delivery.Quantile(0.99))
		for _, ch := range d.conv.Channels() {
			c := d.conv.Channel(ch)
			fmt.Fprintf(&b, "channel %s converged=%v mutations=%d ctrl_sends=%d ctrl_hops=%d\n",
				ch, !c.MutationAny || c.Converged, c.Mutations, c.CtrlSends, c.CtrlHops)
		}
	})
	if d.chk != nil {
		d.chkMu.Lock()
		fmt.Fprintf(&b, "monitor violations=%d\n", len(d.chk.Violations()))
		d.chkMu.Unlock()
	} else {
		fmt.Fprintln(&b, "monitor off")
	}
	return b.String()
}
