package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hbh/internal/addr"
	"hbh/internal/core"
	"hbh/internal/live"
	"hbh/internal/obs"
	"hbh/internal/packet"
	"hbh/internal/topology"
	"hbh/internal/unicast"
)

// The two live workloads drive the goroutine-per-node runtime in
// RealMode, open loop: the pump sends on a fixed schedule whatever the
// runtime does, every delay is timed from the instant the packet was
// due, and how late the pump itself ran is reported beside it. The rate
// is pinned well below saturation, so the time-driven control plane and
// the count-driven data plane are both the same work in every round.

const (
	// liveUnit is the runtime's default: one virtual unit is 1 ms, so
	// T1 is 350 ms and rides out the 50-280 ms scheduling stalls seen on
	// a shared two-core machine (at 200 us a 78 ms stall flapped the tree).
	liveUnit = time.Millisecond
	// liveConvergeUnits is the fixed settling wait of a set-up.
	liveConvergeUnits = 600
	livePayload       = 64
	// liveDrain is how long after the last send a packet may still
	// arrive and count.
	liveDrain = 300 * time.Millisecond
	// A process frozen for longer than the soft-state timeout loses its
	// trees whatever its code does: T1 is 350 ms, and this machine froze
	// the whole process for 464 ms once in some sixty runs. The pump is
	// due every few milliseconds, so a send issued stallThreshold late
	// means the process did not run for that long. What was sent from
	// stallLead before the freeze (still in flight) until the trees are
	// whole again is excused: not owed, and said so on standard error.
	// Whole again means stallWhole sends of the channel running reached
	// all its receivers, looked for from stallRecovery after the freeze
	// (the state it leaves half expired takes T1+T2, 700 ms, to go, and
	// packets still flow over it meanwhile) and no later than stallLimit
	// after it: trees that stay broken are failures. A clean 600 ms
	// SIGSTOP heals inside stallRecovery; the host's own freezes come
	// with seconds of starvation after them, and fixed windows of 1.2 s
	// and 2.5 s left 204 of 66 184 and 843 of 682 737 deliveries missing.
	stallThreshold = 175 * time.Millisecond
	stallLead      = 100 * time.Millisecond
	stallRecovery  = 2500 * time.Millisecond
	stallLimit     = 8 * time.Second
	stallWhole     = 20
)

// liveSpec is what differs between the live workloads.
type liveSpec struct {
	udp       bool // loopback UDPTransport, one socket per node; else ChanTransport
	telemetry bool // the observer `hbhd -telemetry` attaches, scraped once a second
	channels  int
	audience  int     // receivers per channel
	sendRate  int     // SendData calls per second, round-robin over the channels
	churnPerS float64 // receiver leave->rejoin cycles per second
	// A leave lasts awayMin..awayMax: longer than T1+T2 (700 units), so
	// the receiver's state really dissolves and the rejoin rebuilds it,
	// table writes beside the data plane's reads.
	awayMin, awayMax time.Duration
	// round is the length of one measured round: half a second or a
	// second, 12 750 or 3 570 deliveries, so that a run holds thirty to
	// sixty rounds for the lower quartile to choose from.
	round time.Duration
}

// liveTree is one built, started and converged runtime.
type liveTree struct {
	spec     liveSpec
	rt       *live.Runtime
	chans    []*liveChan
	rcvs     []*liveRcv
	counters *obs.Counters
	payload  []byte
	// cal, when set, is run in a burst at every round boundary of a
	// stream (see calib.go).
	cal *refKernel
}

type liveChan struct {
	src  *core.Source
	host topology.NodeID
	sent uint32 // SendData calls so far, which is the next sequence number
	rcvs []*liveRcv
}

// liveRcv is one receiver and its measurement state. Everything below
// the first block is touched only on the host's node goroutine while a
// run is in flight (OnData and Do closures both run there), and read by
// the pump after the runtime has drained.
type liveRcv struct {
	r      *core.Receiver
	host   topology.NodeID
	ch     int
	distNs int64 // shortest-path delay source->receiver at liveUnit
	hops   int

	seen      []uint64 // one bit per measured send of the channel
	dups      int64
	joinAt    int64   // ns since run start of the pending rejoin, 0 when none
	joinDelay []int64 // per churn cycle: join call -> the first packet after it, 0 = none yet
	cycle     int
}

// buildLive is one set-up: seeded costs on the ISP topology, engines
// attached, transport and observer installed, every receiver joined,
// the fixed convergence wait, and a probe that every receiver hears.
func buildLive(spec liveSpec, seed int64) (*liveTree, error) {
	g := topology.ISP()
	g.RandomizeCosts(rand.New(rand.NewSource(splitmix(seed, 0))), 1, 10)
	g.Freeze()
	routing := unicast.Compute(g)
	rt := live.New(live.Config{Graph: g, Routing: routing, Unit: liveUnit})
	cfg := core.DefaultConfig()
	for _, r := range g.Routers() {
		core.AttachRouter(rt.Node(r), cfg)
	}
	t := &liveTree{spec: spec, rt: rt, payload: make([]byte, livePayload)}
	rng := rand.New(rand.NewSource(splitmix(seed, 1)))
	rng.Read(t.payload)
	hosts := g.Hosts()
	if spec.channels > len(hosts) || spec.audience > len(hosts)-1 {
		return nil, fmt.Errorf("live: %d channels x %d receivers do not fit %d hosts", spec.channels, spec.audience, len(hosts))
	}
	for c, si := range rng.Perm(len(hosts))[:spec.channels] {
		ch := &liveChan{host: hosts[si], src: core.AttachSource(rt.Node(hosts[si]), addr.GroupAddr(c), cfg)}
		for _, hi := range rng.Perm(len(hosts)) {
			if hi == si || len(ch.rcvs) == spec.audience {
				continue
			}
			h := hosts[hi]
			rc := &liveRcv{
				r: core.AttachReceiver(rt.Node(h), ch.src.Channel(), cfg), host: h, ch: c,
				distNs: int64(routing.Dist(ch.host, h)) * int64(liveUnit),
				hops:   len(routing.Path(ch.host, h)) - 1,
			}
			ch.rcvs = append(ch.rcvs, rc)
			t.rcvs = append(t.rcvs, rc)
		}
		t.chans = append(t.chans, ch)
	}
	if spec.telemetry {
		// The pipeline cmd/hbhd's attachObserver builds.
		o := obs.New(nil)
		t.counters = o.EnableCounters()
		o.EnableLatency()
		o.EnableConvergence()
		o.EnableRecorder(256)
		rt.SetObserver(o)
	}
	if spec.udp {
		book := make(map[topology.NodeID]string, g.NumNodes())
		for _, nd := range g.Nodes() {
			book[nd.ID] = "127.0.0.1:0"
		}
		tr, err := live.NewUDPTransport(rt.Hosted(), book, rt.HandleFrame)
		if err != nil {
			return nil, err
		}
		rt.SetTransport(tr)
	}
	rt.Start()
	for _, rc := range t.rcvs {
		rt.Do(rc.host, rc.r.Join)
	}
	time.Sleep(liveConvergeUnits * liveUnit)
	// The probe. A tree that a scheduling stall kept from settling in
	// the fixed wait gets two more refresh intervals, a few times over;
	// the extra wait shows in setup_s.
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if err = t.probe(); err == nil {
			return t, nil
		}
		time.Sleep(200 * liveUnit)
	}
	rt.Stop()
	return nil, fmt.Errorf("live: not converged %d units after the joins: %w", liveConvergeUnits+5*200, err)
}

// probe sends one packet per channel and checks that every receiver
// heard it exactly once.
func (t *liveTree) probe() error {
	for _, ch := range t.chans {
		t.send(ch)
	}
	time.Sleep(100 * time.Millisecond)
	var err error
	for _, rc := range t.rcvs {
		got := 0
		t.rt.Do(rc.host, func() { got = len(rc.r.Deliveries) })
		if got != 1 && err == nil {
			err = fmt.Errorf("receiver on %s of channel %d heard the probe %d times", t.rt.Topology().Node(rc.host).Name, rc.ch, got)
		}
	}
	t.resetDeliveries()
	return err
}

func (t *liveTree) send(ch *liveChan) {
	t.rt.Do(ch.host, func() { ch.src.SendData(t.payload) })
	ch.sent++
}

// resetDeliveries empties every receiver's delivery log and seen-set:
// they grow with every packet, and left alone their growth would read
// as state the runtime retains.
func (t *liveTree) resetDeliveries() {
	for _, rc := range t.rcvs {
		t.rt.Do(rc.host, rc.r.ResetDeliveries)
	}
}

func (t *liveTree) stop() { t.rt.Stop() }

// churnEv is one scheduled membership action, in ns since run start.
type churnEv struct {
	at    int64
	rc    *liveRcv
	join  bool
	cycle int // which of the receiver's leave->rejoin cycles this is
}

// churns reports whether channel c is the one whose receivers leave
// and rejoin: the last, when the spec has churn at all. The others keep
// their audience, so what they are owed is unambiguous.
func (t *liveTree) churns(c int) bool { return t.spec.churnPerS > 0 && c == len(t.chans)-1 }

// churnSchedule draws leave->rejoin cycles on the churn channel at the
// spec's rate over the run. A receiver is picked only if it has been
// back for as long as it was away, so its cycles never overlap.
func (t *liveTree) churnSchedule(seed int64, length time.Duration) (evs []churnEv, leaves map[*liveRcv][]int64) {
	leaves = make(map[*liveRcv][]int64)
	if t.spec.churnPerS <= 0 {
		return nil, leaves
	}
	rng := rand.New(rand.NewSource(splitmix(seed, 2)))
	freeAt := make(map[*liveRcv]int64)
	gap := float64(time.Second) / t.spec.churnPerS
	horizon := int64(length - t.spec.awayMax - t.spec.awayMin)
	for at := int64(gap); at < horizon; at += int64(gap * (0.5 + rng.Float64())) {
		pool := t.chans[len(t.chans)-1].rcvs
		rc := pool[rng.Intn(len(pool))]
		if freeAt[rc] > at {
			continue
		}
		back := at + int64(t.spec.awayMin) + rng.Int63n(int64(t.spec.awayMax-t.spec.awayMin))
		freeAt[rc] = back + int64(t.spec.awayMin)
		evs = append(evs, churnEv{at, rc, false, len(leaves[rc])}, churnEv{back, rc, true, len(leaves[rc])})
		leaves[rc] = append(leaves[rc], at)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs, leaves
}

// liveSamples holds one round's delivery samples. OnData callbacks on
// many node goroutines claim slots with one atomic add: no mutex and no
// allocation on the delivery path.
type liveSamples struct {
	n     atomic.Int64
	delay []int64 // ns from the due instant to OnData
	who   []int32 // index into liveTree.rcvs
}

// tapRec is one data frame put on a link, recorded by the traced run.
type tapRec struct {
	at       int64
	from, to topology.NodeID
	ch       int32
	k        int64
}

// liveRun is one measured stretch of streaming.
type liveRun struct {
	t          *liveTree
	t0         time.Time
	intervalNs int64
	perRound   int64 // sends per round
	perChan    int64 // measured sends per channel
	base       []uint32
	rounds     []liveSamples
	// Boundary b closes round b-1 with ends[b] and opens round b with
	// starts[b]; the reference burst (refs[b]) and the emptying of the
	// delivery logs run between the two, in no round.
	starts, ends []mark
	refs         []float64
	stats        []live.Stats
	late         []int64 // per send: how late the pump issued it
	sendNs       []int64 // per send: duration of rt.Do+SendData
	leaves       map[*liveRcv][]int64
	heapMB       float64
	length       time.Duration

	traced  []bool // per round
	tracing atomic.Bool
	taps    []tapRec
	delivs  []tapRec // from = to = receiving host
	ntap    atomic.Int64
	ndeliv  atomic.Int64
}

// stream runs nRounds rounds of open-loop streaming. traced marks the
// rounds during which link taps and deliveries are recorded as spans
// (nil: no tap is installed at all).
func (t *liveTree) stream(seed int64, nRounds int, traced []bool) *liveRun {
	k := int64(len(t.chans))
	perRound := int64(float64(t.spec.sendRate)*t.spec.round.Seconds()) / k * k
	run := &liveRun{
		t: t, perRound: perRound, perChan: perRound / k * int64(nRounds),
		intervalNs: int64(t.spec.round) / perRound,
		rounds:     make([]liveSamples, nRounds),
		starts:     make([]mark, 0, nRounds+1),
		ends:       make([]mark, 0, nRounds+1),
		stats:      make([]live.Stats, 0, nRounds+1),
		late:       make([]int64, perRound*int64(nRounds)),
		sendNs:     make([]int64, perRound*int64(nRounds)),
		length:     time.Duration(nRounds) * t.spec.round,
		traced:     traced,
	}
	perSend := 0
	for _, ch := range t.chans {
		perSend += len(ch.rcvs)
	}
	slots := int(perRound/k)*perSend + 64
	for i := range run.rounds {
		run.rounds[i].delay = make([]int64, slots)
		run.rounds[i].who = make([]int32, slots)
	}
	evs, leaves := t.churnSchedule(seed, run.length)
	run.leaves = leaves
	for _, ch := range t.chans {
		run.base = append(run.base, ch.sent)
	}
	if traced != nil {
		run.taps = make([]tapRec, 1<<20)
		run.delivs = make([]tapRec, 1<<19)
		chanOf := make(map[addr.Channel]int32, len(t.chans))
		for c, ch := range t.chans {
			chanOf[ch.src.Channel()] = int32(c)
		}
		t.rt.AddTap(func(from, to topology.NodeID, msg packet.Message) {
			d, ok := msg.(*packet.Data)
			if !ok || !run.tracing.Load() {
				return
			}
			c := chanOf[d.Channel]
			if n := run.ntap.Add(1) - 1; n < int64(len(run.taps)) {
				run.taps[n] = tapRec{int64(time.Since(run.t0)), from, to, c, int64(d.Seq - run.base[c])}
			}
		})
	}
	words := (run.perChan + 63) / 64
	for i, rc := range t.rcvs {
		i, rc := int32(i), rc
		nc := len(leaves[rc])
		t.rt.Do(rc.host, func() {
			rc.seen = make([]uint64, words)
			rc.dups, rc.joinAt, rc.cycle = 0, 0, 0
			rc.joinDelay = make([]int64, nc)
			rc.r.OnData = func(d core.Delivery) { run.onData(rc, i, d) }
		})
	}

	var scrapes sync.WaitGroup
	stopScrape := make(chan struct{})
	if t.counters != nil {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			// Mid-round, so that every round holds exactly one scrape.
			select {
			case <-stopScrape:
				return
			case <-time.After(t.spec.round / 2):
			}
			tick := time.NewTicker(t.spec.round)
			defer tick.Stop()
			for {
				select {
				case <-stopScrape:
					return
				case <-tick.C:
					// What a /metrics scrape does: the whole registry
					// rendered under the emission lock.
					t.rt.ObsLocked(func() { _ = t.counters.Export(io.Discard) })
				}
			}
		}()
	}

	run.t0 = time.Now()
	run.boundary(0)
	next := 0
	for i := int64(0); i < int64(len(run.late)); i++ {
		due := i * run.intervalNs
		for next < len(evs) && evs[next].at <= due {
			run.churn(evs[next])
			next++
		}
		now := int64(time.Since(run.t0))
		if now < due {
			time.Sleep(time.Duration(due - now))
			now = int64(time.Since(run.t0))
		}
		if now > due {
			run.late[i] = now - due
		}
		t.send(t.chans[i%k])
		run.sendNs[i] = int64(time.Since(run.t0)) - now
		if (i+1)%perRound == 0 {
			run.boundary(int((i + 1) / perRound))
		}
	}
	time.Sleep(liveDrain)
	close(stopScrape)
	scrapes.Wait()
	run.tracing.Store(false)
	for _, rc := range t.rcvs {
		rc := rc
		t.rt.Do(rc.host, func() { rc.r.OnData = nil; rc.r.ResetDeliveries() })
	}
	// What the runtime holds, less what this harness preallocated.
	own := 12*len(run.rounds)*len(run.rounds[0].delay) + 8*(len(run.late)+len(run.sendNs)) +
		len(t.rcvs)*8*int(words) + 40*(len(run.taps)+len(run.delivs))
	run.heapMB = heapLiveMB() - float64(own)/1e6
	return run
}

// boundary closes round r-1 and opens round r.
func (run *liveRun) boundary(r int) {
	run.ends = append(run.ends, markNow())
	run.stats = append(run.stats, run.t.rt.Stats())
	if run.t.cal != nil {
		// Three milliseconds on the pump's goroutine: the next few sends
		// go out late, well under one in a hundred of a round's.
		run.refs = append(run.refs, run.t.cal.burst())
	}
	if r > 0 {
		run.t.resetDeliveries()
	}
	run.tracing.Store(r < len(run.traced) && run.traced[r])
	run.starts = append(run.starts, markNow())
}

func (run *liveRun) churn(ev churnEv) {
	rc := ev.rc
	if !ev.join {
		run.t.rt.Do(rc.host, rc.r.Leave)
		return
	}
	run.t.rt.Do(rc.host, func() {
		rc.joinAt, rc.cycle = int64(time.Since(run.t0)), ev.cycle
		rc.r.Join()
	})
}

// onData runs on the receiving host's node goroutine.
func (run *liveRun) onData(rc *liveRcv, idx int32, d core.Delivery) {
	now := int64(time.Since(run.t0))
	k := int64(d.Seq - run.base[rc.ch])
	if k >= run.perChan {
		return // a warm-up packet still in flight (its k wrapped around)
	}
	if rc.seen[k>>6]&(1<<(k&63)) != 0 {
		rc.dups++
		return
	}
	rc.seen[k>>6] |= 1 << (k & 63)
	i := k*int64(len(run.t.chans)) + int64(rc.ch)
	rd := &run.rounds[i/run.perRound]
	if n := rd.n.Add(1) - 1; n < int64(len(rd.delay)) {
		rd.delay[n] = now - i*run.intervalNs
		rd.who[n] = idx
	}
	if rc.joinAt != 0 {
		rc.joinDelay[rc.cycle] = now - rc.joinAt
		rc.joinAt = 0
	}
	if run.tracing.Load() {
		if n := run.ndeliv.Add(1) - 1; n < int64(len(run.delivs)) {
			run.delivs[n] = tapRec{now, rc.host, rc.host, int32(rc.ch), k}
		}
	}
}

// liveReport is a run reduced to numbers.
type liveReport struct {
	rounds            []round
	attempted, failed int64
	dups              int64
	excused           int // sends not owed because the process was frozen around them
	heapMB            float64
	cpuShare          float64   // of one core, whole run
	delayMs           []float64 // per round p50
	overP50, overP90  []float64 // per round, ms
	overAllMs         []float64 // every sample, ascending
	stretchP50        []float64 // per round: delay / shortest-path delay
	ctrlPerDelivery   []float64 // per round: control transmissions per delivery
	joinMs            []float64 // every rejoin, ascending
	lateMs            []float64 // every send, ascending
}

func (run *liveRun) report() *liveReport {
	t := run.t
	rep := &liveReport{heapMB: run.heapMB, rounds: make([]round, len(run.rounds))}
	for r := range run.rounds {
		rd := &run.rounds[r]
		n := rd.n.Load()
		if n > int64(len(rd.delay)) {
			n = int64(len(rd.delay))
		}
		stretch := make([]float64, n)
		over := make([]float64, n)
		delay := make([]float64, n)
		perHop := make([]float64, n)
		for j := int64(0); j < n; j++ {
			rc := t.rcvs[rd.who[j]]
			delay[j] = float64(rd.delay[j]) / 1e6
			over[j] = float64(rd.delay[j]-rc.distNs) / 1e6
			stretch[j] = float64(rd.delay[j]) / float64(rc.distNs)
			perHop[j] = float64(rd.delay[j]-rc.distNs) / 1e3 / float64(rc.hops)
		}
		sort.Float64s(stretch)
		sort.Float64s(over)
		sort.Float64s(delay)
		sort.Float64s(perHop)
		rep.overAllMs = append(rep.overAllMs, over...)
		rep.delayMs = append(rep.delayMs, quantile(delay, 0.5))
		rep.overP50 = append(rep.overP50, quantile(over, 0.5))
		rep.overP90 = append(rep.overP90, quantile(over, 0.9))
		st := run.stats[r+1]
		pre := run.stats[r]
		rr := &rep.rounds[r]
		rr.cost(run.starts[r], run.ends[r+1], n)
		if run.refs != nil {
			rr.refUs = (run.refs[r] + run.refs[r+1]) / 2
		}
		rr.framesPerDelivery = float64(st.DataCopies-pre.DataCopies) / float64(n)
		rep.ctrlPerDelivery = append(rep.ctrlPerDelivery, float64((st.Transmissions-st.DataCopies)-(pre.Transmissions-pre.DataCopies))/float64(n))
		rr.latencyP50 = quantile(perHop, 0.5)
		rr.latencyP90 = quantile(perHop, 0.9)
		rep.stretchP50 = append(rep.stretchP50, quantile(stretch, 0.5))
	}
	sort.Float64s(rep.overAllMs)
	rep.cpuShare = float64(run.ends[len(run.ends)-1].cpu-run.starts[0].cpu) / float64(run.length)
	for i := range run.late {
		rep.lateMs = append(rep.lateMs, float64(run.late[i])/1e6)
	}
	sort.Float64s(rep.lateMs)

	// What was owed and what is missing. Every measured send is owed to
	// every receiver of a stable channel. On the churn channel a leave or
	// a rejoin reshapes the tree under the other members too, and HBH
	// repairs that by soft-state expiry, losing and duplicating packets
	// on the way (0.26 % lost here); there only the rejoin is owed: a
	// packet must follow it.
	k := int64(len(t.chans))
	// whole reports whether send i reached every receiver of its channel
	// (on the churn channel nothing is owed per packet).
	whole := func(i int) bool {
		c, j := int(int64(i)%k), int64(i)/k
		if t.churns(c) {
			return true
		}
		for _, rc := range t.chans[c].rcvs {
			if rc.seen[j>>6]&(1<<(j&63)) == 0 {
				return false
			}
		}
		return true
	}
	excused := make([]bool, len(run.late))
	for i, late := range run.late {
		if late < int64(stallThreshold) {
			continue
		}
		back := int64(i)*run.intervalNs + late // when the process ran again
		healthy := 0
		for j := max(0, i-int(int64(stallLead)/run.intervalNs)); j < len(excused); j++ {
			if due := int64(j) * run.intervalNs; due >= back+int64(stallRecovery) {
				if healthy >= stallWhole*int(k) || due >= back+int64(stallLimit) {
					break
				}
				if whole(j) {
					healthy++
				} else {
					healthy = 0
				}
			}
			if !excused[j] {
				excused[j] = true
				rep.excused++
			}
		}
	}
	for _, rc := range t.rcvs {
		rep.dups += rc.dups
		if t.churns(rc.ch) {
			for c := range run.leaves[rc] {
				rep.attempted++
				if rc.joinDelay[c] == 0 {
					rep.failed++
					continue
				}
				rep.joinMs = append(rep.joinMs, float64(rc.joinDelay[c])/1e6)
			}
			continue
		}
		for j := int64(0); j < run.perChan; j++ {
			if excused[j*k+int64(rc.ch)] {
				continue
			}
			rep.attempted++
			if rc.seen[j>>6]&(1<<(j&63)) == 0 {
				rep.failed++
			}
		}
	}
	sort.Float64s(rep.joinMs)
	return rep
}
