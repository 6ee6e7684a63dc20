// Package core implements HBH, the Hop-By-Hop multicast routing
// protocol — the paper's primary contribution.
//
// HBH distributes data over recursive unicast trees: packets always
// carry unicast destination addresses, and the branching routers of a
// channel rewrite the destination on the copies they emit, so
// unicast-only routers forward multicast data transparently. A channel
// is the EXPRESS-style pair <S, G>.
//
// Tree construction uses three messages (Appendix A of the paper):
//
//   - join(S, R): periodically unicast by receiver R toward the source;
//     refreshed hop-by-hop. A branching router whose MFT holds R
//     intercepts the join and signs a join(S, B) itself, so join
//     refreshes chain branch-by-branch up the tree. The FIRST join of a
//     receiver is never intercepted and always reaches S — that is what
//     lets HBH discover the true shortest-path join point even when the
//     receiver->source unicast path (which the join follows) differs
//     from the source->receiver path (which data will follow).
//
//   - tree(S, R): periodically emitted by the source for each table
//     entry R and regenerated at branching routers; travels downstream
//     along the *forward* unicast route to R, installing Multicast
//     Control Table (MCT) state in non-branching routers on the way.
//     Because forwarding state is installed by the downstream-travelling
//     tree message rather than the upstream join, HBH builds
//     shortest-path trees, not reverse shortest-path trees.
//
//   - fusion(S, R1..Rn): sent upstream by a router that notices it lies
//     on the delivery path of several tree targets (it is a potential
//     branching node). The upstream branching point marks those targets
//     (tree-only, no data) and installs the sender as a stale entry
//     (data-only, no tree), splicing the new branching node into the
//     data path and eliminating duplicate copies on shared links — the
//     repair REUNITE lacks under asymmetric routing.
//
// Table-entry soft state uses the paper's two timers: t1 expiry makes
// an entry stale (data still forwarded, no downstream tree message),
// t2 expiry destroys it. A marked entry is the dual: tree messages are
// forwarded, data is not.
//
// This package holds only those rules: the Router's and the Source's
// Handle/onJoin/onTree/onFusion/onData, mark handling (applyFusion,
// retractFusion, revalidateMark), relay collapse, the delivery-tree
// audit walk and the IGMP LeafAgent. The machinery underneath — tables,
// timers' wiring, the member-host Receiver, the source's refresh and
// data scaffolding, the dedup window — is package softstate, shared
// with REUNITE exactly as the paper shares it.
package core
