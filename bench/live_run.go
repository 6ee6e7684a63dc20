package main

import (
	"fmt"
	"sort"
	"time"

	"hbh/internal/topology"
)

// Both live workloads stream channels from seeded sources to every other
// host of the ISP topology. With the whole topology listening, a
// packet crosses the same number of links whatever costs the seed
// draws, so the cost of a delivery does not depend on the draw; with six
// random receivers per channel it moved 10 % between seeds.

// chanStream is live-chan-stream: mailbox, per-hop clock.Real timers,
// per-hop Marshal and frame codec, emitMu; no sockets, no telemetry.
var chanStream = liveSpec{channels: 4, audience: 17, sendRate: 1500, round: 500 * time.Millisecond}

// udpChurn is live-udp-churn-telemetry, the deployed configuration: a
// socket per node, the observer hbhd attaches, a scrape a second, and
// the receivers of one channel leaving and rejoining while data flows
// on both. Two channels, not four: with the observer attached the
// time-driven control plane alone costs 30 % of a core at four, and
// per-hop latency climbs steeply with utilisation. At three channels and
// 210 sends a second the run took 36 % of a core on a quiet machine and
// 43-53 % on a slowed one, and its median latency moved from 1071 to
// 1689 us between runs; at two it takes 26-35 %. A round is a second,
// so that each holds one scrape.
var udpChurn = liveSpec{udp: true, telemetry: true, channels: 2, audience: 17, sendRate: 140, churnPerS: 3,
	awayMin: 900 * time.Millisecond, awayMax: 1300 * time.Millisecond, round: time.Second}

func runLive(name string, spec liveSpec, cfg runCfg) (*outcome, error) {
	setups, nRounds, warm := 3, int(cfg.seconds/spec.round.Seconds()), time.Second
	if cfg.trace {
		// Eight seconds of rounds, untraced and traced by turns; the
		// per-layer suite gets the rest of the run. setup_s is not
		// reported.
		setups, nRounds = 1, 2*int(4*time.Second/spec.round)
	}
	if cfg.quick {
		spec.round = 250 * time.Millisecond
		spec.awayMin, spec.awayMax = 150*time.Millisecond, 250*time.Millisecond
		setups, nRounds, warm = 1, 2, 125*time.Millisecond
	}
	if nRounds < 1 {
		nRounds = 1
	}
	out := &outcome{}
	var tree *liveTree
	for i := 0; i < setups; i++ {
		if tree != nil {
			tree.stop()
		}
		t0 := time.Now()
		var err error
		if tree, err = buildLive(spec, cfg.seed); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	defer tree.stop()
	tree.cal = cfg.cal
	if cfg.trace {
		for r := 0; r < nRounds; r++ {
			out.traced = append(out.traced, r%2 == 1)
		}
	}
	tree.warm(warm)
	run := tree.stream(cfg.seed, nRounds, out.traced)
	rep := run.report()
	out.rounds = rep.rounds
	out.heapMB = rep.heapMB
	out.attempted, out.failed = rep.attempted, rep.failed
	if rep.failed*1000 > rep.attempted {
		out.problemf("%d of %d owed deliveries and rejoins are missing (limit 0.1 %%)", rep.failed, rep.attempted)
	}
	out.notes = append(out.notes, fmt.Sprintf(
		"cpu %.0f %% of a core, pump late p99 %.3f ms, %d transient duplicates, overhead p50 %.3f ms p90 %.3f ms, delay p50 %.2f ms, %d rejoins p50 %.1f ms",
		100*rep.cpuShare, quantile(rep.lateMs, 0.99), rep.dups, median(rep.overP50), median(rep.overP90), median(rep.delayMs),
		len(rep.joinMs), quantile(rep.joinMs, 0.5)))
	if rep.excused > 0 {
		out.notes = append(out.notes, fmt.Sprintf("the process was frozen for over %v: %d sends excused", stallThreshold, rep.excused))
	}
	if !cfg.trace {
		return out, nil
	}
	tr := newTracer(true)
	run.spans(tr)
	return out, tr.finish(name, out)
}

// warm streams unmeasured for d, so mailbox queues, pools and the heap
// reach their working size before the first round.
func (t *liveTree) warm(d time.Duration) {
	gap := time.Second / time.Duration(t.spec.sendRate)
	for i := 0; i < int(d/gap); i++ {
		time.Sleep(gap)
		t.send(t.chans[i%len(t.chans)])
	}
	time.Sleep(100 * time.Millisecond)
	t.resetDeliveries()
}

// spans turns the traced rounds' records into spans: per packet a
// `send` (rt.Do + SendData), under it one `hop` per link the packet was
// put on, under each hop the `wire` time the link's cost imposes, and a
// `deliver` where a receiver's OnData ran. A hop ends at the first thing
// the packet did at the far node (the next hop's transmit, or the
// delivery), so its self time is what the runtime added to the link's
// cost: timer slop, mailbox, codec, transport.
func (run *liveRun) spans(tr *tracer) {
	type key struct {
		ch int32
		k  int64
	}
	type rec struct {
		tapRec
		deliver bool
	}
	byReq := make(map[key][]rec)
	for _, t := range run.taps[:min(int(run.ntap.Load()), len(run.taps))] {
		byReq[key{t.ch, t.k}] = append(byReq[key{t.ch, t.k}], rec{t, false})
	}
	for _, d := range run.delivs[:min(int(run.ndeliv.Load()), len(run.delivs))] {
		byReq[key{d.ch, d.k}] = append(byReq[key{d.ch, d.k}], rec{d, true})
	}
	keys := make([]key, 0, len(byReq))
	for k := range byReq {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].k != keys[b].k {
			return keys[a].k < keys[b].k
		}
		return keys[a].ch < keys[b].ch
	})
	g := run.t.rt.Topology()
	nch := int64(len(run.t.chans))
	for _, k := range keys {
		recs := byReq[k]
		sort.Slice(recs, func(a, b int) bool { return recs[a].at < recs[b].at })
		i := k.k*nch + int64(k.ch)
		if !run.traced[i/run.perRound] {
			continue // sent before tracing was switched on: only its tail was recorded
		}
		req := fmt.Sprintf("c%d#%d", k.ch, k.k)
		due := i * run.intervalNs
		start := due + run.late[i]
		send := tr.add(0, req, "send", start, start+run.sendNs[i])
		// at[node] is the span that brought the packet to node.
		at := map[topology.NodeID]int{run.t.chans[k.ch].host: send}
		for j, r := range recs {
			if r.deliver {
				tr.add(at[r.to], req, "deliver", r.at, r.at)
				continue
			}
			wire := int64(g.Cost(r.from, r.to)) * int64(liveUnit)
			end := r.at + wire
			for _, later := range recs[j+1:] {
				if later.from == r.to {
					end = max(end, later.at)
					break
				}
			}
			hop := tr.add(at[r.from], req, "hop", r.at, end)
			tr.add(hop, req, "wire", r.at, r.at+wire)
			at[r.to] = hop
		}
	}
}
