package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer, kept in memory and written out once when the run
// ends. Spans of one request share Req. A traced run never feeds an
// end-to-end number: it exists for the per-layer metrics, the span file
// and bench.trace_overhead_ratio.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // the span that caused this one
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceFileSpans caps the span file; the per-name summary counts all.
const traceFileSpans = 20000

type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// now is ns since the tracer started; 0 when tracing is off, so an
// untraced run pays one branch per call site.
func (t *tracer) now() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) nowIf(cond bool) int64 {
	if !cond {
		return 0
	}
	return t.now()
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int, req, name string, start, end int64) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return len(t.spans)
}

// begin opens a span whose end is filled in by end.
func (t *tracer) begin(cond bool, name string) int {
	if !t.on || !cond {
		return 0
	}
	return t.add(0, "", name, t.now(), 0)
}

func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = t.now()
	}
}

// spanStat is one span name's totals. Self is duration minus the part
// of the interval that child spans cover.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) summary() map[string]spanStat {
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]spanStat)
	for _, s := range t.spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return t.spans[ks[a]].Start < t.spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			from, to := t.spans[k].Start, t.spans[k].End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		st := out[s.Name]
		st.Count++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(s.End-s.Start-covered) / 1e6
		out[s.Name] = st
	}
	return out
}

// traceDir is where span files go, relative to the checkout root.
const traceDir = "bench/out"

// finish writes bench/out/trace-<workload>.json and fills the harness's
// own per-layer figures from the run's traced and untraced rounds.
func (t *tracer) finish(workload string, out *outcome) error {
	if !t.on {
		return nil
	}
	var plain, traced []float64
	for i, r := range out.rounds {
		if out.traced[i] {
			traced = append(traced, r.cpuUsPerUnit)
		} else {
			plain = append(plain, r.cpuUsPerUnit)
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("trace: need a traced and an untraced round, have %d and %d", len(traced), len(plain))
	}
	if out.layers == nil {
		out.layers = make(map[string]float64)
	}
	out.layers["bench.trace_overhead_ratio"] = median(traced) / median(plain)
	out.layers["bench.round_iqr_ratio"] = iqrRatio(plain)
	out.layers["run.heap_retained_mb"] = out.heapMB

	spans := t.spans
	if len(spans) > traceFileSpans {
		spans = spans[:traceFileSpans]
	}
	doc := struct {
		Workload string              `json:"workload"`
		Spans    int                 `json:"spans_recorded"`
		Summary  map[string]spanStat `json:"summary"`
		Sample   []span              `json:"spans"`
	}{workload, len(t.spans), t.summary(), spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, "trace-"+workload+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	out.notes = append(out.notes, fmt.Sprintf("%d spans, %s", len(t.spans), path))
	return nil
}
