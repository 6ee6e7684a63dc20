// Package workload generates many-channel traffic workloads for the
// sharded runtime: Zipf-distributed channel popularity, Poisson
// join/leave membership churn and flash-crowd ramps, following the
// dynamic-membership methodology of "Analysis of Performance of
// Dynamic Multicast Routing Algorithms" (cs/9809102). Everything is
// derived deterministically from (Seed, channel index) alone, so a
// workload is identical however channels are later sharded across
// workers.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"hbh/internal/eventsim"
)

// channelSeedMix decorrelates per-channel rng streams: the golden-ratio
// multiplier spreads consecutive indices across the seed space.
const channelSeedMix = int64(-0x61c8864680b583eb) // 0x9e3779b97f4a7c15 as int64

// Config parameterises a workload.
type Config struct {
	// Channels is the number of concurrent <S,G> channels.
	Channels int
	// ZipfS is the popularity skew: channel i (0-ranked) gets weight
	// (i+1)^-s. 0 means uniform popularity.
	ZipfS float64
	// MinReceivers / MaxReceivers bound the initial receiver population
	// per channel; the population scales with the channel's popularity
	// weight between the bounds.
	MinReceivers, MaxReceivers int
	// ChurnRate is the expected number of join/leave events per channel
	// per Interval on the most popular channel; less popular channels
	// churn proportionally to their weight. 0 disables churn.
	ChurnRate float64
	// FlashCrowd adds one flash-crowd ramp to the most popular
	// FlashCrowd channels: a burst of joins early in the horizon that
	// doubles the channel's population in quick succession.
	FlashCrowd int
	// Horizon is the workload duration; events are drawn in [0, Horizon).
	Horizon eventsim.Time
	// Interval is the unit ChurnRate is expressed against (typically
	// the protocol refresh interval).
	Interval eventsim.Time
	// Seed drives every draw.
	Seed int64
}

// Event is one membership change: member index Member joins (Join) or
// leaves at time At. Member indices are dense per channel, 0-based;
// indices >= the initial population are churn/flash arrivals.
type Event struct {
	At     eventsim.Time
	Member int
	Join   bool
}

// Channel is one generated <S,G> channel's workload.
type Channel struct {
	// Index is the popularity rank (0 = most popular).
	Index int
	// Weight is the normalised Zipf popularity in (0, 1].
	Weight float64
	// Receivers is the initial population joining at time 0 (the
	// executor jitters actual join times).
	Receivers int
	// Peak is the largest member index ever used plus one — the
	// executor sizes its host pool from it.
	Peak int
	// Events is the churn schedule, sorted by time. Joins and leaves
	// alternate per member so membership is always well defined, and
	// the population never drops below one.
	Events []Event
}

func (c Config) validate() {
	if c.Channels < 1 {
		panic(fmt.Sprintf("workload: need at least one channel, got %d", c.Channels))
	}
	if c.MinReceivers < 1 || c.MaxReceivers < c.MinReceivers {
		panic(fmt.Sprintf("workload: bad receiver bounds [%d,%d]", c.MinReceivers, c.MaxReceivers))
	}
	if c.ZipfS < 0 {
		panic(fmt.Sprintf("workload: negative Zipf skew %v", c.ZipfS))
	}
	if c.ChurnRate > 0 && (c.Horizon <= 0 || c.Interval <= 0) {
		panic("workload: churn needs positive Horizon and Interval")
	}
}

// Generate builds the workload. Channel i's stream depends only on
// (Seed, i): generating channels in any order, or any subset, yields
// identical results — the property the sharded executor's determinism
// rests on.
func Generate(cfg Config) []Channel {
	cfg.validate()
	out := make([]Channel, cfg.Channels)
	for i := range out {
		out[i] = genChannel(cfg, i)
	}
	return out
}

// genChannel builds channel i's workload from its private rng.
func genChannel(cfg Config, i int) Channel {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(i+1)*channelSeedMix))
	w := math.Pow(float64(i+1), -cfg.ZipfS)

	span := cfg.MaxReceivers - cfg.MinReceivers
	recv := cfg.MinReceivers + int(math.Round(w*float64(span)))

	ch := Channel{Index: i, Weight: w, Receivers: recv, Peak: recv}

	// Poisson churn: exponential interarrivals at rate ChurnRate*w per
	// Interval. A leave removes the longest-joined member (FIFO, so a
	// leave always targets a currently joined member); a join brings in
	// a fresh member index. A leave that would empty the channel becomes
	// a join instead, so probes always have a member to check.
	if cfg.ChurnRate > 0 {
		rate := cfg.ChurnRate * w / float64(cfg.Interval)
		queue := make([]int, recv)
		for m := range queue {
			queue[m] = m
		}
		next := recv // next fresh member index
		at := eventsim.Time(0)
		for {
			at += eventsim.Time(rng.ExpFloat64() / rate)
			if at >= cfg.Horizon {
				break
			}
			if rng.Intn(2) == 0 && len(queue) > 1 {
				ch.Events = append(ch.Events, Event{At: at, Member: queue[0]})
				queue = queue[1:]
			} else {
				ch.Events = append(ch.Events, Event{At: at, Member: next, Join: true})
				queue = append(queue, next)
				next++
			}
		}
		ch.Peak = next
	}

	// Flash crowd: the FlashCrowd most popular channels double their
	// population in a tight ramp at a random point in the first half of
	// the horizon.
	if i < cfg.FlashCrowd && cfg.Horizon > 0 {
		start := eventsim.Time(rng.Float64()) * cfg.Horizon / 2
		step := cfg.Interval / 8
		if step <= 0 {
			step = 1
		}
		base := ch.Peak
		for k := 0; k < recv; k++ {
			ch.Events = append(ch.Events, Event{
				At:     start + eventsim.Time(k)*step,
				Member: base + k,
				Join:   true,
			})
		}
		ch.Peak = base + recv
	}

	sortEvents(ch.Events)
	return ch
}

// sortEvents orders by time, breaking ties by member index then kind so
// the schedule is fully deterministic even at equal times.
func sortEvents(evs []Event) {
	// Insertion sort: streams are near-sorted already (only the flash
	// ramp appends out of order) and short.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && less(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

func less(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Member != b.Member {
		return a.Member < b.Member
	}
	return !a.Join && b.Join
}
