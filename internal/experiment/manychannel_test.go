package experiment

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"hbh/internal/topology"
	"hbh/internal/workload"
)

// mcTestConfig is a small-but-representative A14 configuration: enough
// channels for Zipf head/tail contrast and flash-crowd ramps, small
// enough to run in tens of milliseconds.
func mcTestConfig() ManyChannelConfig {
	return ManyChannelConfig{
		Tiers:          []int{6, 18},
		Routers:        40,
		HostsPerRouter: 3,
		Workers:        2,
		Seed:           1,
	}
}

// TestManyChannelChurnDelivery pins the churn-starvation regression:
// a flash-crowd channel whose members join and leave through IGMP leaf
// agents used to wedge HBH trees permanently — a border router that
// un-branched (collapsed to MCT state) kept its table entry upstream
// alive with leaf joins, so the upstream mark pointing at it was never
// lifted and the members it used to relay starved behind it forever
// (marks were the one piece of hard state in the protocol; they now
// lapse unless the relay's fusions keep confirming them). With the
// mark-confirmation repair every channel must deliver to every
// post-churn member, across all three protocols.
func TestManyChannelChurnDelivery(t *testing.T) {
	cfg := ManyChannelConfig{
		Tiers: []int{8}, Routers: 32, HostsPerRouter: 4,
		Workers: 2, Seed: 7,
	}
	res := ManyChannelExperiment(cfg)
	for _, row := range res.Rows {
		if row.Missing != 0 {
			t.Errorf("%s: %d of %d members missed delivery after churn",
				row.Protocol, row.Missing, row.Receivers)
		}
		if row.Receivers == 0 {
			t.Errorf("%s: no members probed", row.Protocol)
		}
	}
}

// TestManyChannelLeafAggregation pins the paper's aggregation
// argument end to end: any number of local IGMP members behind one
// border router collapses to a single channel subscription, so the
// channel's MFT/MCT footprint is identical whether that router serves
// one host or several.
func TestManyChannelLeafAggregation(t *testing.T) {
	cfg := mcTestConfig().withDefaults()
	x := buildMCSubstrate(cfg)

	// All member hosts behind ONE router; the source behind another.
	byRouter := map[topology.NodeID][]topology.NodeID{}
	for _, h := range x.hosts {
		r := x.g.AttachedRouter(h)
		byRouter[r] = append(byRouter[r], h)
	}
	var leafHosts []topology.NodeID
	var srcHost topology.NodeID
	for _, r := range x.g.Routers() { // deterministic iteration order
		hosts := byRouter[r]
		switch {
		case len(hosts) >= 3 && leafHosts == nil:
			leafHosts = hosts
		case srcHost == topology.None && len(hosts) > 0:
			srcHost = hosts[0]
		}
	}
	if len(leafHosts) < 3 || srcHost == topology.None {
		t.Fatal("substrate layout did not provide a 3-host leaf router and a separate source host")
	}

	footprintWith := func(members int) stateFootprint {
		ch := workload.Channel{Index: 0, Weight: 1, Receivers: members, Peak: members}
		s := x.startHBH(cfg, ch, srcHost, leafHosts[:members], nil)
		s.settle(mcConvergeIntervals)
		if got := len(s.joined()); got != members {
			t.Fatalf("%d members joined, want %d", got, members)
		}
		return s.state()
	}

	one, many := footprintWith(1), footprintWith(3)
	if one != many {
		t.Errorf("footprint depends on local member count: 1 member %+v, 3 members %+v", one, many)
	}
}

// TestManyChannelDeterminism is the A14 reproducibility contract: the
// formatted table and every cell's merged counter export are
// byte-identical at 1, 4 and NumCPU workers.
func TestManyChannelDeterminism(t *testing.T) {
	workers := []int{1, 4, runtime.NumCPU()}
	type snapshot struct {
		table   string
		exports []string
	}
	var base snapshot
	for i, w := range workers {
		cfg := mcTestConfig()
		cfg.Workers = w
		res := ManyChannelExperiment(cfg)
		snap := snapshot{table: res.FormatTable()}
		for _, row := range res.Rows {
			var buf bytes.Buffer
			if err := row.Counters.Export(&buf); err != nil {
				t.Fatal(err)
			}
			snap.exports = append(snap.exports, buf.String())
		}
		if i == 0 {
			base = snap
			continue
		}
		if snap.table != base.table {
			t.Errorf("table at %d workers differs from %d workers:\n--- %d ---\n%s\n--- %d ---\n%s",
				w, workers[0], workers[0], base.table, w, snap.table)
		}
		if len(snap.exports) != len(base.exports) {
			t.Fatalf("row count changed with workers: %d vs %d", len(snap.exports), len(base.exports))
		}
		for r := range snap.exports {
			if snap.exports[r] != base.exports[r] {
				t.Errorf("row %d counter export at %d workers differs from %d workers", r, w, workers[0])
			}
		}
	}
}

// TestManyChannelTableShape sanity-checks the sweep output: every
// (tier, protocol) cell present, receivers scale with the tier, and
// fewer routers hold HBH data-plane state than PIM-SM's classical
// every-on-tree-router state (the paper's core claim, surviving at
// scale).
func TestManyChannelTableShape(t *testing.T) {
	res := ManyChannelExperiment(mcTestConfig())
	if len(res.Rows) != 6 {
		t.Fatalf("want 2 tiers x 3 protocols = 6 rows, got %d", len(res.Rows))
	}
	byKey := map[string]ManyChannelRow{}
	for _, row := range res.Rows {
		byKey[string(row.Protocol)+"/"+strconv.Itoa(row.Channels)] = row
		if row.Receivers < row.Channels { // every channel keeps >= 1 member
			t.Errorf("%s@%d: %d receivers for %d channels", row.Protocol, row.Channels, row.Receivers, row.Channels)
		}
	}
	for _, tier := range []int{6, 18} {
		hbh := byKey["HBH/"+strconv.Itoa(tier)]
		pim := byKey["PIM-SM/"+strconv.Itoa(tier)]
		if hbh.MFTRouters >= pim.MFTRouters {
			t.Errorf("tier %d: HBH data-plane state at %d routers not below PIM-SM's %d",
				tier, hbh.MFTRouters, pim.MFTRouters)
		}
		if hbh.Ctrl == 0 {
			t.Errorf("tier %d: HBH control cost zero over a churn window", tier)
		}
	}
	table := res.FormatTable()
	for _, want := range []string{"A14", "channels", "entries/ch", "REUNITE", "PIM-SM"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if res.LazyStats.Misses == 0 {
		t.Error("shared lazy router never computed a row?")
	}
}
