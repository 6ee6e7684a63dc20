package reunite

import (
	"hbh/internal/addr"
	"hbh/internal/netsim"
	"hbh/internal/packet"
	"hbh/internal/softstate"
)

// REUNITE runs on the soft-state kit's machinery unchanged: its timing
// is the kit's Config (so the two protocols run under identical
// soft-state sizing in every experiment), and the member-host agent,
// table rows and control entry are the kit's own.
type (
	Config   = softstate.Config
	Entry    = softstate.Entry
	MCT      = softstate.MCT
	Receiver = softstate.Receiver
)

// DefaultConfig matches core.DefaultConfig so comparisons are fair.
func DefaultConfig() Config { return softstate.DefaultConfig() }

// AttachReceiver creates a (not yet joined) REUNITE receiver agent on
// host n. All its joins are interceptable: REUNITE has no first-join
// exemption, and its wire format no first-join flag.
func AttachReceiver(n netsim.ProtoNode, ch addr.Channel, cfg Config) *Receiver {
	return softstate.AttachReceiver(n, ch, cfg, packet.ProtoREUNITE, false)
}
