package experiment

import (
	"runtime"
	"sync/atomic"
	"testing"

	"hbh/internal/workload"
)

// The A14 throughput benchmarks: packets forwarded per wall-clock
// second through converged HBH trees over the shared substrate. Each
// iteration originates one data packet on a channel and runs that
// channel's simulation one refresh interval (so periodic control
// traffic is included, as it would be on a live runtime); the reported
// pkts/s metric counts actual data-plane link traversals (DataCopies),
// not originations. The parallel variant drives channels from all
// procs through the one shared race-safe lazy router — the sharded
// executor's hot path.
//
// The recorded many-channel figure is the sim-manychannel-stream
// workload (bench/README.md); these stay for measuring while you work:
//
//	go test -bench BenchmarkManyChannel -run '^$' ./internal/experiment/

// benchChannels is fixed (not GOMAXPROCS-scaled) so baseline files
// from different machines stay comparable in shape.
const benchChannels = 16

// benchSessions brings up converged, churn-free HBH channels over one
// shared substrate.
func benchSessions(b *testing.B) []*mcSession {
	b.Helper()
	cfg := ManyChannelConfig{
		Tiers: []int{benchChannels}, Routers: 48, HostsPerRouter: 4,
		Workers: 1, Seed: 9,
	}.withDefaults()
	x := buildMCSubstrate(cfg)
	wl := workload.Generate(workload.Config{
		Channels:     benchChannels,
		ZipfS:        cfg.ZipfS,
		MinReceivers: cfg.MinReceivers,
		MaxReceivers: cfg.MaxReceivers,
		Seed:         cfg.Seed,
	})
	sessions := make([]*mcSession, len(wl))
	for i, ch := range wl {
		s := x.start(cfg, HBH, ch, nil)
		s.settle(mcConvergeIntervals)
		sessions[i] = s
	}
	return sessions
}

func dataCopies(sessions []*mcSession) int {
	n := 0
	for _, s := range sessions {
		n += s.net.Stats().DataCopies
	}
	return n
}

func BenchmarkManyChannelForward(b *testing.B) {
	sessions := benchSessions(b)
	pre := dataCopies(sessions)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sessions[i%len(sessions)]
		s.send()
		if err := s.sim.Run(s.sim.Now() + s.interval); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(dataCopies(sessions)-pre)/b.Elapsed().Seconds(), "pkts/s")
}

func BenchmarkManyChannelForwardParallel(b *testing.B) {
	sessions := benchSessions(b)
	pre := dataCopies(sessions)
	pool := make(chan *mcSession, len(sessions))
	for _, s := range sessions {
		pool <- s
	}
	var failed atomic.Bool
	b.SetParallelism(1) // one goroutine per proc; sessions outnumber procs
	if runtime.GOMAXPROCS(0) > len(sessions) {
		b.Skipf("GOMAXPROCS %d exceeds %d benchmark channels", runtime.GOMAXPROCS(0), len(sessions))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s := <-pool
			s.send()
			if err := s.sim.Run(s.sim.Now() + s.interval); err != nil {
				failed.Store(true)
			}
			pool <- s
		}
	})
	b.StopTimer()
	if failed.Load() {
		b.Fatal("simulation error under parallel drive")
	}
	b.ReportMetric(float64(dataCopies(sessions)-pre)/b.Elapsed().Seconds(), "pkts/s")
}
