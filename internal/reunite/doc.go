// Package reunite implements REUNITE (REcursive UNIcast TrEes, Stoica,
// Ng and Zhang, INFOCOM 2000), the protocol HBH is evaluated against,
// as described in §2 of the HBH paper.
//
// REUNITE also distributes data over recursive unicast trees, but its
// tree construction differs from HBH in the two ways the paper
// dissects:
//
//   - Joins are intercepted by the first router that already carries
//     tree state for the channel (an MCT entry installed by a passing
//     tree message, or an MFT). Under asymmetric unicast routing the
//     interceptor may sit on a path that is NOT on the shortest
//     source->receiver route, pinning the new member to a detour
//     (Figure 2) until the interceptor's state happens to dissolve.
//
//   - Routers that merely see tree messages for several receivers pass
//     through never become branching nodes (branching is detected on
//     join interception only), so two copies of the same data packet
//     can share a link indefinitely (Figure 3). HBH's fusion message
//     exists precisely to repair this.
//
// Table semantics follow the paper: each branching node's MFT has a
// dst receiver (the first member that joined in its subtree; upstream
// addresses data and tree messages to it), and soft-state entries with
// (t1, t2) timers. A stale dst makes the node emit marked tree
// messages, which dissolve downstream state so that orphaned members
// re-join at the source — the reconfiguration walk of Figure 2(b)-(d).
//
// This package holds only those rules: join interception and
// becomeBranching, the MFT wrapper carrying Dst/TableStale/Liveness,
// marked-tree teardown, the source's admit and refresh rules, and the
// unicast-path delivery-tree audit walk. Tables, the member-host
// Receiver, the source scaffolding and the dedup window are package
// softstate, the machinery HBH was built on.
package reunite
