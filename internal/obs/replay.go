// Trace replay: parse the JSONL trace files the daemons write back
// into events, merge per-process files on their wall-clock stamps, and
// feed the episode builder — hbhtrace's cross-process causal mode.
//
// A replayed event is a degraded copy of the original: the packet
// survives only as its formatted string, wire sizes are gone, and the
// virtual timestamps of different processes share no clock (each
// daemon's simulation starts at zero). What does survive exactly is
// the causal stamp — every daemon seeds a disjoint (episode, step)
// namespace (see SeedCausal), so the merged DAG is collision-free —
// and the coarse wall-clock ordering the Wall stamps give.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"hbh/internal/addr"
	"hbh/internal/eventsim"
)

// ReplayEvent is one event parsed back from a JSONL trace line.
type ReplayEvent struct {
	Event
	// Wall is the wall-clock stamp in nanoseconds (0 when the file was
	// written without one).
	Wall int64
	// MsgText is the formatted packet string ("" when the event carried
	// no packet); HasMsg distinguishes "no packet" from an empty render.
	MsgText string
	HasMsg  bool
}

// jsonlLine mirrors the JSONLSink field layout.
type jsonlLine struct {
	T      float64 `json:"t"`
	Wall   int64   `json:"wall"`
	Kind   string  `json:"kind"`
	Node   string  `json:"node"`
	NodeA  string  `json:"node_addr"`
	Peer   string  `json:"peer"`
	Ch     string  `json:"ch"`
	Seq    uint32  `json:"seq"`
	Cause  string  `json:"cause"`
	Ep     uint64  `json:"ep"`
	Step   uint64  `json:"step"`
	PStep  uint64  `json:"pstep"`
	Msg    *string `json:"msg"`
	Detail string  `json:"detail"`
}

// kindFromString inverts Kind.String (unknown strings map to KindNote
// so a replay never rejects a file a newer writer produced).
func kindFromString(s string) Kind {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k
		}
	}
	return KindNote
}

// causeFromString inverts Cause.String.
func causeFromString(s string) Cause {
	for c := Cause(0); c < numCauses; c++ {
		if c.String() == s {
			return c
		}
	}
	return CauseNone
}

// ParseJSONL reads a JSONL trace stream back into replay events.
// Blank lines are skipped; a malformed line is an error (trace files
// are machine-written — damage means truncation worth knowing about).
func ParseJSONL(r io.Reader) ([]ReplayEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []ReplayEvent
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var l jsonlLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		re := ReplayEvent{Wall: l.Wall}
		re.At = eventsim.Time(l.T)
		re.Kind = kindFromString(l.Kind)
		re.NodeName = l.Node
		if l.NodeA != "" {
			if a, err := addr.Parse(l.NodeA); err == nil {
				re.Node = a
			}
		}
		re.PeerName = l.Peer
		if l.Ch != "" {
			if ch, ok := parseChannel(l.Ch); ok {
				re.Channel = ch
			}
		}
		re.Seq = l.Seq
		re.Cause = causeFromString(l.Cause)
		re.Episode = EpisodeID(l.Ep)
		re.Step = StepID(l.Step)
		re.ParentStep = StepID(l.PStep)
		if l.Msg != nil {
			re.MsgText, re.HasMsg = *l.Msg, true
		}
		re.Detail = l.Detail
		out = append(out, re)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

// EmitReplay folds one replayed event into the builder. Control-plane
// hop accounting degrades gracefully: a forward is counted as a
// control hop when its packet text is not a data packet, and wire
// bytes (not recoverable from the text) count zero.
func (b *EpisodeBuilder) EmitReplay(re ReplayEvent) {
	ctrlHop := re.Kind == KindForward && re.HasMsg && !strings.Contains(re.MsgText, " data(")
	msg := re.MsgText
	if !re.HasMsg {
		msg = "(no packet)"
	}
	b.add(re.Event, lineMsg(re.Event, msg, re.HasMsg), ctrlHop, 0)
}

// LoadCausalFiles parses per-daemon JSONL trace files and merges them
// into one episode builder: events are ordered by wall-clock stamp
// (stable; causal step breaks ties within one instant), and their
// timestamps are rebased to milliseconds since the earliest stamped
// event across all files, so the rendered timelines read on one shared
// clock. Events written without wall stamps keep relative order within
// their file and sort before stamped ones.
func LoadCausalFiles(paths []string) (*EpisodeBuilder, error) {
	var all []ReplayEvent
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		evs, err := ParseJSONL(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		all = append(all, evs...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Wall != all[j].Wall {
			return all[i].Wall < all[j].Wall
		}
		return all[i].Step < all[j].Step
	})
	var minWall int64
	for _, re := range all {
		if re.Wall != 0 && (minWall == 0 || re.Wall < minWall) {
			minWall = re.Wall
		}
	}
	b := NewEpisodeBuilder(0)
	for _, re := range all {
		if re.Wall != 0 {
			re.At = eventsim.Time(float64(re.Wall-minWall) / 1e6)
		}
		b.EmitReplay(re)
	}
	return b, nil
}
