package obs

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hbh/internal/eventsim"
)

// syntheticEvents builds a deterministic stream of the event kinds
// Apply derives metrics from, spread over several nodes and causes.
func syntheticEvents(n int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	kinds := []Kind{
		KindSend, KindForward, KindDeliver, KindDrop, KindJoinSend,
		KindTreeSend, KindFusionSend, KindTableAdd, KindTableRemove,
		KindReplicate, KindBranch, KindCollapse, KindFault,
	}
	causes := []Cause{CauseAdvLoss, CauseNoRoute, CauseHopLimit}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		ev := Event{
			Kind:     kinds[rng.Intn(len(kinds))],
			NodeName: fmt.Sprintf("r%d", rng.Intn(12)),
			Channel:  testCh,
		}
		if ev.Kind == KindDrop {
			ev.Cause = causes[rng.Intn(len(causes))]
		}
		out = append(out, ev)
	}
	return out
}

// TestCountersMergeExportByteIdentical partitions one event stream
// across K per-worker registries and asserts the merged export is
// byte-identical to a single registry that applied the whole stream —
// the property the sharded runtime's worker barrier relies on.
func TestCountersMergeExportByteIdentical(t *testing.T) {
	events := syntheticEvents(5000, 42)

	single := NewCounters()
	for _, ev := range events {
		single.Apply(ev)
	}
	var want strings.Builder
	if err := single.Export(&want); err != nil {
		t.Fatalf("Export: %v", err)
	}

	for _, workers := range []int{2, 3, 7} {
		shards := make([]*Counters, workers)
		for w := range shards {
			shards[w] = NewCounters()
		}
		// Round-robin partition: an arbitrary (but deterministic) split.
		for i, ev := range events {
			shards[i%workers].Apply(ev)
		}
		merged := NewCounters()
		for _, s := range shards {
			merged.Merge(s)
		}
		var got strings.Builder
		if err := merged.Export(&got); err != nil {
			t.Fatalf("Export: %v", err)
		}
		if got.String() != want.String() {
			t.Fatalf("%d-shard merged export differs from single-registry export", workers)
		}
	}
}

// TestCountersMergeSeries checks series ride along through Merge and
// keep their samples, with the global sort in Export ordering them.
func TestCountersMergeSeries(t *testing.T) {
	a, b := NewCounters(), NewCounters()
	sa := a.NewSeries("hbh_state_mft_entries", "protocol", "hbh")
	sb := b.NewSeries("hbh_state_mft_entries", "protocol", "reunite")
	sa.Sample(eventsim.Time(1), 4)
	sb.Sample(eventsim.Time(2), 7)
	a.Merge(b)
	var out strings.Builder
	if err := a.Export(&out); err != nil {
		t.Fatalf("Export: %v", err)
	}
	text := out.String()
	hbhAt := strings.Index(text, `protocol="hbh"`)
	reuAt := strings.Index(text, `protocol="reunite"`)
	if hbhAt < 0 || reuAt < 0 || hbhAt > reuAt {
		t.Fatalf("merged series missing or unsorted:\n%s", text)
	}
}

// TestCountersPerWorkerConcurrent is the -race proof of the sharding
// pattern: N workers each hammering their *own* registry concurrently,
// then a serial merge. The old single-shared-Counters pattern this
// replaces races on the vals map the moment two workers Apply at once.
func TestCountersPerWorkerConcurrent(t *testing.T) {
	const workers = 8
	shards := make([]*Counters, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		shards[w] = NewCounters()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, ev := range syntheticEvents(2000, int64(w)) {
				shards[w].Apply(ev)
			}
		}(w)
	}
	wg.Wait()
	merged := NewCounters()
	var wantTotal float64
	for _, s := range shards {
		wantTotal += s.Total("hbh_sends_total")
		merged.Merge(s)
	}
	if got := merged.Total("hbh_sends_total"); got != wantTotal {
		t.Fatalf("merged sends %v, shard sum %v", got, wantTotal)
	}
}
