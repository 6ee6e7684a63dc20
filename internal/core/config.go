package core

import (
	"hbh/internal/addr"
	"hbh/internal/netsim"
	"hbh/internal/packet"
	"hbh/internal/softstate"
)

// Config carries HBH's protocol constants: the soft-state timing every
// recursive-unicast protocol here runs under, plus HBH's one feature
// switch.
type Config struct {
	// Config is the timing (JoinInterval, TreeInterval, T1, T2) shared
	// with REUNITE, so comparisons see identical soft-state sizing.
	softstate.Config
	// EnableFusion enables the fusion repair mechanism. Disabling it is
	// the A1 ablation: HBH degrades to per-receiver unicast delivery
	// from the source table, exposing the duplicate copies fusion
	// removes.
	EnableFusion bool
}

// DefaultConfig returns the timing used by all experiments, with
// fusion on.
func DefaultConfig() Config {
	return Config{Config: softstate.DefaultConfig(), EnableFusion: true}
}

// The tables, the member-host agent and its delivery log are the
// soft-state kit's; HBH adds rules, not machinery.
type (
	Entry    = softstate.Entry
	MFT      = softstate.MFT
	MCT      = softstate.MCT
	Receiver = softstate.Receiver
	Delivery = softstate.Delivery
)

// AttachReceiver creates a (not yet joined) HBH receiver agent on host
// n for channel ch. Its first join is flagged so no branching router
// intercepts it: it always reaches the source, which is what guarantees
// the shortest-path join point.
func AttachReceiver(n netsim.ProtoNode, ch addr.Channel, cfg Config) *Receiver {
	return softstate.AttachReceiver(n, ch, cfg.Config, packet.ProtoHBH, true)
}
