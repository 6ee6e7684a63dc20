// The daemon's HTTP observability surface: Prometheus metrics,
// convergence-aware health, pprof, flight-recorder dumps and a live
// JSONL trace stream. Every read goes through Runtime.ObsLocked — the
// same emission lock the node goroutines serialise on — so a scrape
// sees a consistent cut of the registries without stopping the world.
package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"hbh/internal/obs"
)

// telemetry is one daemon's HTTP listener and handlers.
type telemetry struct {
	d   *daemon
	ln  net.Listener
	srv *http.Server
}

// startTelemetry binds the listener and serves in the background.
func startTelemetry(d *daemon, addr string) (*telemetry, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry listener: %w", err)
	}
	t := &telemetry{d: d, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", t.metrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { t.health(w, false) })
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { t.health(w, true) })
	mux.HandleFunc("/flight/", t.flight)
	mux.HandleFunc("/trace", t.trace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	t.srv = &http.Server{Handler: mux}
	go t.srv.Serve(ln) //nolint:errcheck // Serve returns on close
	return t, nil
}

func (t *telemetry) close() { t.srv.Close() }

// metrics renders the counter registry (scalars and latency
// histograms) plus the daemon-level hbh_converged gauge, all captured
// under one emission-lock cut, and after them the runtime's own
// transport counters (read just before that cut).
func (t *telemetry) metrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	var gauges []string
	st := t.d.rt.Stats()
	t.d.rt.ObsLocked(func() {
		t.d.counters.Export(&buf) //nolint:errcheck // bytes.Buffer cannot fail
		gauges = t.d.convergedGaugeLocked()
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes()) //nolint:errcheck
	fmt.Fprintln(w, "# HELP hbh_converged whether the channel's tree is quiescent: 1 once a convergence probe finds no structural mutation pending, 0 mid-burst")
	fmt.Fprintln(w, "# TYPE hbh_converged gauge")
	for _, g := range gauges {
		fmt.Fprintln(w, g)
	}
	fmt.Fprintln(w, "# HELP hbh_transport_send_errors_total frames the transport refused to send (closed socket, address-book miss)")
	fmt.Fprintln(w, "# TYPE hbh_transport_send_errors_total counter")
	fmt.Fprintln(w, "hbh_transport_send_errors_total", st.SendErrors)
	fmt.Fprintln(w, "# HELP hbh_frame_decode_rejects_total received frames rejected by the frame or packet decoder")
	fmt.Fprintln(w, "# TYPE hbh_frame_decode_rejects_total counter")
	fmt.Fprintln(w, "hbh_frame_decode_rejects_total", st.CodecDrops)
}

// convergedGaugeLocked renders one hbh_converged sample per channel —
// the daemon's own channel always present, plus anything else the
// tracker saw — in sorted order. Caller holds the emission lock.
func (d *daemon) convergedGaugeLocked() []string {
	chans := map[string]bool{d.ch.String(): d.convergedLocked(d.ch.String())}
	for _, ch := range d.conv.Channels() {
		chans[ch.String()] = d.convergedLocked(ch.String())
	}
	names := make([]string, 0, len(chans))
	for name := range chans {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, name := range names {
		v := 0
		if chans[name] {
			v = 1
		}
		out = append(out, fmt.Sprintf("hbh_converged{channel=%q} %d", name, v))
	}
	return out
}

// convergedLocked: a channel with no mutations yet has nothing to
// converge; otherwise the probe-maintained flag decides.
func (d *daemon) convergedLocked(name string) bool {
	for _, ch := range d.conv.Channels() {
		if ch.String() == name {
			c := d.conv.Channel(ch)
			return !c.MutationAny || c.Converged
		}
	}
	return true
}

// health answers /healthz and /readyz: 200 when the trees this daemon
// can see are quiescent and the invariant monitor is clean, 503 with
// one reason per line otherwise. /readyz additionally requires the
// convergence probe to have completed a pass, so a just-started daemon
// is unready rather than vacuously healthy.
func (t *telemetry) health(w http.ResponseWriter, ready bool) {
	reasons := t.d.healthReasons(ready)
	if len(reasons) == 0 {
		fmt.Fprintln(w, "ok")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	for _, r := range reasons {
		fmt.Fprintln(w, r)
	}
}

func (d *daemon) healthReasons(ready bool) []string {
	var reasons []string
	// chkMu is taken outside the emission lock: the monitor holds chkMu
	// across a stop-the-world Quiesce, whose node goroutines block on
	// the emission lock — nesting the two here would deadlock.
	if d.chk != nil {
		d.chkMu.Lock()
		if n := len(d.chk.Violations()); n > 0 {
			reasons = append(reasons, fmt.Sprintf("invariant violations: %d", n))
		}
		d.chkMu.Unlock()
	}
	d.rt.ObsLocked(func() {
		for _, ch := range d.conv.Channels() {
			c := d.conv.Channel(ch)
			if c.MutationAny && !c.Converged {
				reasons = append(reasons,
					fmt.Sprintf("channel %s not converged (mutations=%d)", ch, c.Mutations))
			}
		}
		if ready && !d.probed {
			reasons = append(reasons, "convergence probe has not completed a pass")
		}
	})
	return reasons
}

// flight dumps a hosted node's flight-recorder ring: /flight/<name>.
func (t *telemetry) flight(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/flight/")
	id, ok := t.d.names[name]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown node %q", name), http.StatusNotFound)
		return
	}
	hosted := false
	for _, h := range t.d.rt.Hosted() {
		if h == id {
			hosted = true
		}
	}
	if !hosted {
		http.Error(w, fmt.Sprintf("node %q is not hosted by this daemon", name), http.StatusNotFound)
		return
	}
	var dump string
	t.d.rt.ObsLocked(func() {
		dump = t.d.obsv.Recorder().Dump(t.d.g.Node(id).Addr)
	})
	fmt.Fprint(w, dump)
}

// trace streams live events as JSONL until the client disconnects. An
// optional ?filter= applies the same spec language as hbhsim's
// -trace-filter. The per-connection sink drops lines when the client
// cannot keep up — the emission path must never stall on a slow reader.
func (t *telemetry) trace(w http.ResponseWriter, r *http.Request) {
	pred, err := obs.ParseFilter(r.URL.Query().Get("filter"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sink := &traceSink{pred: pred, lines: make(chan []byte, 256)}
	sink.jsonl = &obs.JSONLSink{W: sink, Wall: func() int64 { return time.Now().UnixNano() }}
	t.d.rt.ObsLocked(func() { t.d.obsv.AddSink(sink) })
	defer t.d.rt.ObsLocked(func() { t.d.obsv.RemoveSink(sink) })

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush() // commit headers so the client sees the stream open
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case line := <-sink.lines:
			if _, err := w.Write(line); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

// traceSink adapts one /trace connection to the observer: filter,
// encode to JSONL, enqueue. Emit runs under the emission lock; Write
// receives the encoder's reused buffer, so it copies before handing
// the line to the HTTP goroutine.
type traceSink struct {
	pred  func(*obs.Event) bool
	jsonl *obs.JSONLSink
	lines chan []byte
}

func (s *traceSink) Emit(ev obs.Event) {
	if s.pred != nil && !s.pred(&ev) {
		return
	}
	s.jsonl.Emit(ev)
}

func (s *traceSink) Write(b []byte) (int, error) {
	line := make([]byte, len(b))
	copy(line, b)
	select {
	case s.lines <- line:
	default: // slow client: drop rather than stall emission
	}
	return len(b), nil
}

// probeLoop is the daemon's convergence prober: every 100ms of wall
// time it asks the tracker whether each channel has quiesced (no
// structural mutation for one soft-state generation, T1+T2) and, on
// the first probe after a mutation burst, feeds the burst duration to
// the hbh_converge_time histogram in seconds.
func (d *daemon) probeLoop() {
	settle := d.pcfg.Generation()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-d.quit:
			return
		case <-tick.C:
		}
		now := d.rt.Now()
		d.rt.ObsLocked(func() {
			for _, ch := range d.conv.Channels() {
				if d.conv.Quiescent(ch, now, settle) {
					if took, newly := d.conv.MarkConverged(ch); newly {
						d.lat.ObserveConverge(float64(took) * d.cfg.unit.Seconds())
					}
				}
			}
			d.probed = true
		})
	}
}
