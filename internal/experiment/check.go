package experiment

import (
	"fmt"
	"os"

	"hbh/internal/addr"
	"hbh/internal/invariant"
	"hbh/internal/topology"
)

// CheckInvariants switches the runtime invariant checker on for every
// experiment run: structural table invariants are validated after each
// simulator event, and each converged probe is checked against the
// protocol's profile (tree shape, delivery, duplication). A violation
// aborts the sweep with the node/channel-attributed report — a sweep
// that finishes has machine-checked every run it averaged.
//
// Set by hbhsim's -check flag; the HBH_INVARIANT_CHECK environment
// variable (any non-empty value) switches it on without flag plumbing,
// which is how CI runs the tier-1 suite under the checker.
var CheckInvariants = os.Getenv("HBH_INVARIANT_CHECK") != ""

// checkingEnabled reports whether cfg's run should carry a checker.
// Partial-deployment runs (the A2 unicast-clouds extension) are
// excluded: with routers that cannot branch, the tree legitimately
// deviates from the full-deployment invariants the profiles encode.
func checkingEnabled(cfg RunConfig) bool {
	if !CheckInvariants && !cfg.Check {
		return false
	}
	return cfg.MulticastFraction <= 0 || cfg.MulticastFraction >= 1
}

// memberAddrs maps member host IDs to their unicast addresses.
func memberAddrs(g *topology.Graph, members []topology.NodeID) []addr.Addr {
	out := make([]addr.Addr, 0, len(members))
	for _, m := range members {
		out = append(out, g.Node(m).Addr)
	}
	return out
}

// profileFor returns the invariant profile a protocol's runs are held
// to. PIM-SM drops the per-link uniqueness check: its source->RP
// unicast leg may legitimately share links with the shared tree, so a
// second copy there is the protocol's documented cost, not a bug.
func profileFor(p Protocol) invariant.Config {
	switch p {
	case HBH:
		return invariant.ProfileHBH()
	case HBHNoFusion:
		return invariant.ProfileHBHNoFusion()
	case REUNITE:
		return invariant.ProfileREUNITE()
	case PIMSS:
		return invariant.ProfilePIM()
	case PIMSM:
		c := invariant.ProfilePIM()
		c.LinkUnique = false
		return c
	default:
		panic(fmt.Sprintf("experiment: no invariant profile for %q", p))
	}
}
