package softstate

import (
	"hbh/internal/addr"
	"hbh/internal/netsim"
	"hbh/internal/obs"
	"hbh/internal/packet"
)

// SendJoin unicasts join(S, n) from n toward the channel source, as an
// effect of c: the subscription refresh receivers, branching routers and
// leaf agents all emit. first sets packet.FlagFirst (HBH's
// never-intercepted join). The message is built in out, the sender's
// scratch: Send copies it, so one value serves every join n sends.
func SendJoin(n netsim.ProtoNode, out *packet.Join, c obs.Causal, proto packet.Protocol, ch addr.Channel, first bool) {
	var flags uint8
	if first {
		flags = packet.FlagFirst
	}
	*out = packet.Join{
		Header: packet.Header{
			Proto:   proto,
			Type:    packet.TypeJoin,
			Flags:   flags,
			Channel: ch,
			Src:     n.Addr(),
			Dst:     ch.S,
		},
		R: n.Addr(),
	}
	n.Send(c, out)
}

// SendTree unicasts tree(S, target) from n, the downstream refresh the
// source emits and branching routers regenerate. Its tree-send event is
// an effect of c and the cause of the message, so the message and
// everything it triggers chain to it. marked sets packet.FlagMarked
// (REUNITE's teardown announcement for a stale entry). The message is
// built in out, as by SendJoin.
func SendTree(n netsim.ProtoNode, out *packet.Tree, c obs.Causal, proto packet.Protocol, ch addr.Channel, target addr.Addr, marked bool, detail string) {
	var flags uint8
	if marked {
		flags = packet.FlagMarked
	}
	c = n.Emit(c, obs.Event{Kind: obs.KindTreeSend, Channel: ch, Peer: target, Detail: detail})
	*out = packet.Tree{
		Header: packet.Header{
			Proto:   proto,
			Type:    packet.TypeTree,
			Flags:   flags,
			Channel: ch,
			Src:     n.Addr(),
			Dst:     target,
		},
		R: target,
	}
	n.Send(c, out)
}
