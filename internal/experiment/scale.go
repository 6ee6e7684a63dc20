package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"hbh/internal/addr"
	"hbh/internal/invariant"
	"hbh/internal/obs"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// ScaleConfig parameterises the A13 scale sweep: how far up the
// router-count axis the substrate and the protocol are pushed.
type ScaleConfig struct {
	// Sizes lists the router counts to sweep (Barabási–Albert graphs,
	// M=2 — heavy-tailed AS-level shape). Nil defaults to DefaultScaleSizes.
	Sizes []int
	// Sources is how many sampled sources the substrate phase routes
	// (default 1000 — the acceptance workload).
	Sources int
	// Receivers is the protocol-phase group size (default 32).
	Receivers int
	// Seed drives graph structure, cost draws, sampling and join jitter.
	Seed int64
	// CheckSample bounds the sampled invariant checking above the
	// fast-path threshold (default 16 members/paths per checkpoint).
	CheckSample int
}

// DefaultScaleSizes spans 50 to 50k routers — three orders of
// magnitude, crossing the unicast fast-path threshold between 500 and
// 5000.
func DefaultScaleSizes() []int { return []int{50, 500, 5000, 50000} }

// ScaleRow is one size's measurements.
type ScaleRow struct {
	Routers, Edges int
	// Mode is the routing substrate New selected: "eager" or "lazy".
	Mode string
	// Gen and RouteTime are wall-clock: graph generation, and routing
	// Sources sampled sources (Dist+NextHop queries; each source's row
	// is one on-demand Dijkstra in lazy mode).
	Gen, RouteTime time.Duration
	Sources        int
	// TableBytes is the substrate's resident row storage after the
	// routing phase; EagerBytes is what all-pairs Compute would need.
	TableBytes, EagerBytes int64
	// Verified counts sampled sources whose rows were re-derived with an
	// independent Dijkstra and matched bit-for-bit.
	Verified int
	// Protocol phase: measured join-convergence time for an HBH channel
	// with the configured receivers, the intervals consumed, and whether
	// the detector declared quiescence inside the cap.
	JoinTime  float64
	Converged bool
	// Forwarding-state footprint at convergence.
	MFTRouters, MFTEntries, MCTRouters int
	// HeapBytes is runtime HeapAlloc after the phases (RSS proxy).
	HeapBytes uint64
	// Checked reports the invariant profile ran (sampled above the
	// fast-path threshold) and stayed clean.
	Checked string
}

// ScaleResult is the full A13 table.
type ScaleResult struct {
	Cfg  ScaleConfig
	Rows []ScaleRow
}

// ScaleExperiment runs the A13 sweep: for each size, generate a BA
// graph, route sampled sources through the automatically selected
// substrate (timing it), verify sampled rows against independent
// Dijkstras, then run a live HBH channel over it — join-convergence
// time, MFT/MCT footprint and a converged invariant checkpoint,
// sampled above the fast-path threshold.
func ScaleExperiment(cfg ScaleConfig) *ScaleResult {
	if cfg.Sizes == nil {
		cfg.Sizes = DefaultScaleSizes()
	}
	if cfg.Sources == 0 {
		cfg.Sources = 1000
	}
	if cfg.Receivers == 0 {
		cfg.Receivers = 32
	}
	if cfg.CheckSample == 0 {
		cfg.CheckSample = 16
	}
	res := &ScaleResult{Cfg: cfg}
	for _, n := range cfg.Sizes {
		res.Rows = append(res.Rows, scaleRun(cfg, n))
	}
	return res
}

// scaleRun measures one size.
func scaleRun(cfg ScaleConfig, n int) ScaleRow {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(n)*1_000_003))
	row := ScaleRow{Routers: n}

	// Substrate phase: generate, randomize costs, route sampled sources.
	t0 := time.Now()
	g := topology.BarabasiAlbert(topology.BAConfig{Routers: n, M: 2}, rng)
	attachScaleHosts(g, rng, n, cfg.Receivers)
	g.RandomizeCosts(rng, 1, 10)
	row.Gen = time.Since(t0)
	row.Edges = g.NumEdges()

	rt := unicast.New(g)
	row.Mode = "eager"
	if _, ok := rt.(*unicast.Lazy); ok {
		row.Mode = "lazy"
	}
	routers := g.Routers()
	t0 = time.Now()
	for i := 0; i < cfg.Sources; i++ {
		s := routers[rng.Intn(len(routers))]
		d := routers[rng.Intn(len(routers))]
		_ = rt.Dist(s, d)
		_ = rt.NextHop(s, d)
	}
	row.RouteTime = time.Since(t0)
	row.Sources = cfg.Sources
	row.EagerBytes = unicast.EagerMemoryBytes(g.NumNodes())
	if l, ok := rt.(*unicast.Lazy); ok {
		row.TableBytes = l.MemoryBytes()
	} else {
		row.TableBytes = row.EagerBytes
	}

	// Verification: re-derive a few sampled rows with an independent
	// single-source substrate and require bit-identical tables.
	ref := unicast.NewLazy(g, unicast.LazyOptions{MaxSources: 1})
	for k := 0; k < 5; k++ {
		s := routers[rng.Intn(len(routers))]
		for to := 0; to < g.NumNodes(); to++ {
			d := topology.NodeID(to)
			if rt.Dist(s, d) != ref.Dist(s, d) || rt.NextHop(s, d) != ref.NextHop(s, d) {
				panic(fmt.Sprintf("experiment: scale n=%d: substrate row %d diverges from reference at %d", n, s, d))
			}
		}
		row.Verified++
	}

	// Protocol phase: one live HBH channel over the same substrate.
	o := obs.New(nil)
	o.EnableConvergence()
	p := (&Scenario{Graph: g, Routing: rt}).point(rng, cfg.Receivers)
	s := p.session(RunConfig{Protocol: HBH, Receivers: cfg.Receivers, Seed: cfg.Seed, Obs: o})
	joinAt, converged := s.convergeMeasured()
	row.JoinTime, row.Converged = float64(joinAt), converged

	fp := s.state()
	row.MFTRouters, row.MFTEntries, row.MCTRouters = fp.MFTRouters, fp.MFTEntries, fp.MCTRouters

	// Converged invariant checkpoint: exhaustive at small n, sampled
	// member subsets above the unicast fast-path threshold (the
	// exhaustive walk would fault a per-source row per tree path).
	chk := invariant.New(s.net, s.ch, profileFor(HBH), s.audit)
	chk.SetMembers(memberAddrs(g, p.members))
	if g.NumNodes() >= unicast.FastPathThreshold {
		chk.SetSample(cfg.Seed, cfg.CheckSample)
		row.Checked = fmt.Sprintf("sampled(%d)", cfg.CheckSample)
	} else {
		row.Checked = "full"
	}
	chk.CheckConverged(s.probeSettled().Seq)
	chk.MustClean(fmt.Sprintf("A13 scale n=%d", n))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	row.HeapBytes = ms.HeapAlloc
	return row
}

// attachScaleHosts attaches the source host (router 0, the experiment
// convention) plus `receivers` receiver hosts on distinct random
// routers. Hosts are attached sparsely — at 50k routers a host per
// router would double every per-source routing row for nodes no
// experiment touches.
func attachScaleHosts(g *topology.Graph, rng *rand.Rand, n, receivers int) {
	h := g.AddNode(topology.Host, addr.ReceiverAddr(0), fmt.Sprintf("h%d", n))
	g.AddLink(h, 0, 1, 1)
	seen := map[int]bool{0: true}
	for i := 1; i <= receivers; i++ {
		r := 1 + rng.Intn(n-1)
		for seen[r] {
			r = 1 + rng.Intn(n-1)
		}
		seen[r] = true
		h := g.AddNode(topology.Host, addr.ReceiverAddr(i), fmt.Sprintf("h%d", n+i))
		g.AddLink(h, topology.NodeID(r), 1, 1)
	}
}

// FormatTable renders the A13 table.
func (r *ScaleResult) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A13 scale sweep: Barabási–Albert (M=2) topologies, %d sampled sources,\n", r.Cfg.Sources)
	fmt.Fprintf(&b, "%d receivers per channel, seed %d. mode: routing substrate selected by\n",
		r.Cfg.Receivers, r.Cfg.Seed)
	fmt.Fprintf(&b, "unicast.New (eager all-pairs below %d nodes, lazy per-source LRU above).\n", unicast.FastPathThreshold)
	b.WriteString("table-mem: resident routing rows after the routing phase; eager-mem: what\n")
	b.WriteString("all-pairs Compute would allocate. join-time: measured HBH join convergence\n")
	b.WriteString("(virtual time). check: converged invariant checkpoint mode, always clean.\n\n")
	fmt.Fprintf(&b, "%8s %8s %6s %10s %10s %11s %11s %10s %5s %5s %5s %10s %12s\n",
		"routers", "edges", "mode", "gen", "route-1k", "table-mem", "eager-mem",
		"join-time", "mftR", "mftE", "mctR", "heap", "check")
	for _, row := range r.Rows {
		join := fmt.Sprintf("%.1f", row.JoinTime)
		if !row.Converged {
			join += "*"
		}
		fmt.Fprintf(&b, "%8d %8d %6s %10s %10s %11s %11s %10s %5d %5d %5d %10s %12s\n",
			row.Routers, row.Edges, row.Mode,
			row.Gen.Round(time.Millisecond), row.RouteTime.Round(time.Millisecond),
			fmtBytes(row.TableBytes), fmtBytes(row.EagerBytes),
			join, row.MFTRouters, row.MFTEntries, row.MCTRouters,
			fmtBytes(int64(row.HeapBytes)), row.Checked)
	}
	return b.String()
}

// fmtBytes renders a byte count with a binary-prefix unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
