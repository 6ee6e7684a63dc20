package workload

import (
	"reflect"
	"testing"

	"hbh/internal/eventsim"
)

func testCfg() Config {
	return Config{
		Channels:     64,
		ZipfS:        1.0,
		MinReceivers: 2,
		MaxReceivers: 24,
		ChurnRate:    1.5,
		FlashCrowd:   3,
		Horizon:      eventsim.Time(800),
		Interval:     eventsim.Time(100),
		Seed:         42,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testCfg())
	b := Generate(testCfg())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different workloads")
	}
	c := testCfg()
	c.Seed = 43
	if reflect.DeepEqual(a, Generate(c)) {
		t.Fatal("different seed generated identical workload")
	}
}

// TestChannelIndependence: channel i's stream must not depend on the
// other channels — the sharded executor regenerates nothing, but the
// determinism argument is per-channel seeding.
func TestChannelIndependence(t *testing.T) {
	full := Generate(testCfg())
	small := testCfg()
	small.Channels = 8
	for i, ch := range Generate(small) {
		if !reflect.DeepEqual(ch, full[i]) {
			t.Fatalf("channel %d differs when generated in a smaller batch", i)
		}
	}
}

func TestZipfPopularityShape(t *testing.T) {
	chs := Generate(testCfg())
	if chs[0].Weight != 1 {
		t.Fatalf("rank-0 weight %v, want 1", chs[0].Weight)
	}
	for i := 1; i < len(chs); i++ {
		if chs[i].Weight > chs[i-1].Weight {
			t.Fatalf("weight not monotone at rank %d", i)
		}
		if chs[i].Receivers > chs[i-1].Receivers {
			t.Fatalf("receivers not monotone at rank %d", i)
		}
	}
	cfg := testCfg()
	if chs[0].Receivers != cfg.MaxReceivers {
		t.Fatalf("rank-0 receivers %d, want max %d", chs[0].Receivers, cfg.MaxReceivers)
	}
	last := chs[len(chs)-1]
	if last.Receivers < cfg.MinReceivers || last.Receivers > cfg.MaxReceivers {
		t.Fatalf("tail receivers %d outside [%d,%d]", last.Receivers, cfg.MinReceivers, cfg.MaxReceivers)
	}
}

func TestEventsOrderedAndBounded(t *testing.T) {
	cfg := testCfg()
	for _, ch := range Generate(cfg) {
		joined := map[int]bool{}
		for m := 0; m < ch.Receivers; m++ {
			joined[m] = true
		}
		for i, ev := range ch.Events {
			if ev.At < 0 || (ev.Join == false && ev.At >= cfg.Horizon) {
				t.Fatalf("channel %d event %d out of horizon: %+v", ch.Index, i, ev)
			}
			if i > 0 && less(ev, ch.Events[i-1]) {
				t.Fatalf("channel %d events unsorted at %d", ch.Index, i)
			}
			if ev.Member < 0 || ev.Member >= ch.Peak {
				t.Fatalf("channel %d member %d outside peak %d", ch.Index, ev.Member, ch.Peak)
			}
			if ev.Join {
				joined[ev.Member] = true
			} else {
				if !joined[ev.Member] {
					t.Fatalf("channel %d leave for non-member %d", ch.Index, ev.Member)
				}
				delete(joined, ev.Member)
			}
			if len(joined) < 1 {
				t.Fatalf("channel %d membership emptied at event %d", ch.Index, i)
			}
		}
	}
}

// TestLongHorizonChurnValid: enough churn to turn the membership over
// many times — every leave must still target a joined member (the FIFO
// queue property; a round-robin victim cursor would wrap onto members
// already gone).
func TestLongHorizonChurnValid(t *testing.T) {
	cfg := testCfg()
	cfg.Channels = 4
	cfg.MinReceivers, cfg.MaxReceivers = 2, 4
	cfg.ChurnRate = 3
	cfg.Horizon = eventsim.Time(20000)
	cfg.FlashCrowd = 0
	for _, ch := range Generate(cfg) {
		joined := map[int]bool{}
		for m := 0; m < ch.Receivers; m++ {
			joined[m] = true
		}
		leaves := 0
		for i, ev := range ch.Events {
			if ev.Join {
				joined[ev.Member] = true
				continue
			}
			leaves++
			if !joined[ev.Member] {
				t.Fatalf("channel %d: leave for non-member %d at event %d", ch.Index, ev.Member, i)
			}
			delete(joined, ev.Member)
		}
		if leaves <= ch.Receivers {
			t.Fatalf("channel %d: only %d leaves over long horizon, membership never turned over", ch.Index, leaves)
		}
	}
}

func TestChurnScalesWithPopularity(t *testing.T) {
	cfg := testCfg()
	cfg.FlashCrowd = 0
	chs := Generate(cfg)
	head := len(chs[0].Events)
	tail := len(chs[len(chs)-1].Events)
	if head <= tail {
		t.Fatalf("popular channel churned %d <= unpopular %d", head, tail)
	}
}

func TestFlashCrowdRamp(t *testing.T) {
	cfg := testCfg()
	chs := Generate(cfg)
	for i := 0; i < cfg.FlashCrowd; i++ {
		if chs[i].Peak < chs[i].Receivers*2 {
			t.Fatalf("flash channel %d peak %d < doubled population %d",
				i, chs[i].Peak, chs[i].Receivers*2)
		}
	}
	// A non-flash channel's peak only grows via churn arrivals.
	joins := 0
	for _, ev := range chs[cfg.FlashCrowd].Events {
		if ev.Join && ev.Member >= chs[cfg.FlashCrowd].Receivers {
			joins++
		}
	}
	if chs[cfg.FlashCrowd].Peak != chs[cfg.FlashCrowd].Receivers+joins {
		t.Fatalf("non-flash peak accounting off")
	}
}

func TestNoChurnNoEvents(t *testing.T) {
	cfg := testCfg()
	cfg.ChurnRate = 0
	cfg.FlashCrowd = 0
	for _, ch := range Generate(cfg) {
		if len(ch.Events) != 0 {
			t.Fatalf("channel %d has %d events with churn disabled", ch.Index, len(ch.Events))
		}
		if ch.Peak != ch.Receivers {
			t.Fatalf("channel %d peak %d != receivers %d", ch.Index, ch.Peak, ch.Receivers)
		}
	}
}
