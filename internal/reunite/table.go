package reunite

import (
	"hbh/internal/clock"
	"hbh/internal/softstate"
)

// MFT is a REUNITE Multicast Forwarding Table: the kit's ordered table
// plus the two pieces of whole-table state REUNITE's teardown rules
// need. Entry zero is the dst receiver: the first member that joined in
// this node's subtree, the address upstream data and tree messages
// carry. Removing dst promotes the next oldest entry implicitly (entry
// order is join order).
type MFT struct {
	*softstate.MFT
	// TableStale is set when a marked tree for dst passes: the node
	// stops intercepting joins so orphaned members can re-join at the
	// source, but keeps forwarding data until the entries die.
	TableStale bool
	// Liveness is the whole-table timer, refreshed by tree messages
	// addressed to dst; its expiry destroys the table ("as R3 stops
	// receiving tree messages, its MFT is destroyed").
	Liveness *clock.SoftTimer
}

// NewMFT returns an empty table.
func NewMFT() *MFT { return &MFT{MFT: softstate.NewMFT()} }

// Dst returns the dst entry (entry zero), or nil on an empty table.
func (t *MFT) Dst() *Entry {
	if t.Len() == 0 {
		return nil
	}
	return t.Entries()[0]
}

// Destroy cancels all timers, Liveness included, and empties the table.
func (t *MFT) Destroy() {
	if t.Liveness != nil {
		t.Liveness.Cancel()
	}
	t.MFT.Destroy()
}

// String renders the table for traces: "[dst=r1* r4]" with * marking
// stale entries and a leading ! marking a stale table.
func (t *MFT) String() string {
	s := t.MFT.String()
	if t.Len() > 0 {
		s = "[dst=" + s[1:]
	}
	if t.TableStale {
		s = "!" + s
	}
	return s
}
