// Package sbr6 is a from-scratch Go reproduction of "Secure Bootstrapping
// and Routing in an IPv6-Based Ad Hoc Network" (Tseng, Jiang, Lee; ICPP
// Workshops 2003): CGA-based secure address autoconfiguration with extended
// duplicate address detection and 6DNAR name registration, an in-MANET DNS
// server as the sole trust anchor, a DSR-derived secure routing protocol
// with per-hop identity attestations, and credit-based route maintenance —
// all running on a deterministic discrete-event wireless simulator with
// programmable adversaries.
//
// # Declaring scenarios
//
// Experiments are declared with functional options and validated eagerly:
// a bad flow endpoint or an adversary on the trust anchor fails at build
// time with an error wrapping ErrOption, never mid-run. Node 0 is always
// the DNS server, the network's single security anchor.
//
//	sc, err := sbr6.NewScenario(
//		sbr6.WithNodes(25),
//		sbr6.WithPlacement(sbr6.PlaceGrid),
//		sbr6.WithFlows(sbr6.Flow{From: 1, To: 24, Interval: 500 * time.Millisecond, Size: 64}),
//		sbr6.WithAdversaries(sbr6.BlackHole(12)),
//		sbr6.WithDuration(30*time.Second),
//	)
//
// # Running
//
// Serve hosts a scenario as a Session: the network bootstraps, runs the
// warmup, then advances in window-sized steps under caller control.
// Between steps the caller can Inject new nodes (full CGA
// autoconfiguration, DAD and name registration run live inside the
// simulation), Eject existing ones, Query cumulative results, or Stream
// per-window reports. Every mutation lands at a window barrier, so the
// same scenario, seed and op sequence yield byte-identical results.
//
//	sess, err := sbr6.Serve(sc)
//	idx, err := sess.Inject("late-joiner.example")
//	err = sess.Advance(4)
//	res := sess.Query()
//
// A Runner runs a scenario to its end, and a replicate is exactly a
// Session run to its end: ⌈Duration/W⌉ measured and ⌈Cooldown/W⌉
// cooldown windows of size W, then Query. RunBatch fans seed-replicates
// out across a worker pool and aggregates mean/stddev/95%-CI statistics
// per metric; each simulation stays single-threaded, so a batch's
// per-seed Results are byte-identical to serial execution. An Observer
// streams run starts, measured windows and final results, and a Runner's
// Result also carries each adversary's final state (AdversaryState).
//
//	batch, err := (&sbr6.Runner{}).RunBatch(ctx, sc, sbr6.SeedRange(1, 16))
//	fmt.Println(batch.PDR) // "0.912 ± 0.014"
//
// Every run keeps one rule each. A flow sends at Start + k·Interval into
// the measured span, for k ≥ 1, strictly before Duration. A node's audit
// sweep fires at its seed-stable phase, and a zero phase waits one period.
// A packet in flight at the first window barrier more than one cooldown
// after its send counts as lost.
// Sample series are read from bounded log histograms: means are exact,
// and a quantile is the upper edge of the bucket that holds it.
//
// # Snapshots and daemon mode
//
// Snapshot serializes a session at a barrier into one self-verifying
// JSON value, and Resume rebuilds it by deterministic replay: the
// stored configuration is rebuilt, the journaled inject/eject ops are
// re-applied at their original barriers, and the replayed state digest
// must match the stored one. Running N windows is observably identical
// to snapshotting at window k, resuming, and running the remaining
// N−k — the equivalence suite proves byte-identical merged Results
// across static, mobile and adversarial scenarios, seeds and shard
// counts.
//
// One rule bounds a configuration: NewScenario, the internal
// scenario.Build and Resume each fill the zero fields that have defaults
// with scenario.Defaults (boot stagger, line spacing, region count,
// flood-cache bound, window size, cooldown) and then apply
// scenario.Validate, so every session NewScenario accepts resumes from
// its own snapshot, and a hand-edited snapshot NewScenario could not have
// produced is refused. The bounds: 2 to 2^20 nodes; a finite, positive
// area; a known placement and boot policy; a finite, non-negative spacing
// and radio range; a bitrate of 0 (instantaneous) or 1 to 1e12 b/s; a
// loss rate in [0, 1); finite speeds with MinSpeed at most MaxSpeed, and
// MaxSpeed above 0 when nodes move; every duration between 0 and one year
// of virtual time (scenario.MaxVirtual), with the DAD, discovery, ack and
// resolve timeouts above 0; an audit period of 0 (off) or at least 1 ms;
// a flood-cache bound of 0 (the default) or at least 256; an RERR
// threshold of at least 1; at most 1024 regions; flow payloads of at most
// 2^30 bytes; and names and preloads that are not empty and name
// existing nodes. Each With* option also checks its own value first, so
// its error names the option.
//
// The same Session API is exposed out-of-process by internal/daemon as
// a JSON-RPC 2.0 control plane over newline-delimited frames on a TCP
// or unix socket (manetsim -serve / -connect). All session access is
// serialized through one owner goroutine, so concurrent clients cannot
// break window-barrier determinism; subscribed clients receive a
// notification per completed window.
//
// # Medium indexing and scale
//
// The radio medium resolves receivers through a uniform spatial hash grid:
// a query visits only the cells around a point, widened by how far a mover
// may have drifted since it was last bucketed, and filters the candidates
// by exact distance in attachment order. That keeps 1k-100k-node scenarios
// affordable at every network size with one code path. A broadcast walks
// the grid only to rebuild the transmitter's receiver list: the ports
// within Range + 2s of it at the build, s a sixteenth of the range (0 with
// no movers). The list serves until s / maxSpeed later, when no node has
// drifted more than s, and forever on a medium with no movers, where it is
// exact; attaches and detaches drop or edit only the lists they can
// change. A broadcast fans out from the list, checking each candidate's
// exact distance unless the list is exact; the down check and the loss
// draw stay per receiver. Under the sharded engine every track is extended
// to a run's deadline before the run, so regions read each other's tracks
// without a lock. The medium's tests hold the grid and the lists to a
// brute-force oracle — every pair checked against the raw position
// functions — under motion, down toggles and node churn, with broadcasts
// timed to the lists' lapse. WithBootStagger shortens the serial DAD
// schedule that otherwise dominates large bootstraps.
//
// # The pooled wire path
//
// Frame transmission is allocation-free: encoded frames come from
// per-medium size-class buffer pools, every broadcast shares one encoded
// frame across all its receivers in a single batched delivery event, and
// the transmit/delivery bookkeeping itself is recycled. A test mode
// poisons every released frame, and the differential suite holds per-seed
// Results equal with and without poisoning, so no receiver or retry can
// read a frame after the medium reclaimed it.
//
// The pools are single-threaded by construction: each radio.Medium owns
// its own pool and free lists, never shared, which is exactly the
// precondition the batch runner's sharding relies on — concurrent seed
// replicates each build their own Simulator and Medium and therefore
// their own pools, with no cross-goroutine state.
//
// # The receive path
//
// A node decodes a frame only when a handler needs more than the frame's
// envelope. Each received frame is first scanned — validated exactly as
// the decoder would, without allocating — and counted; an admission step
// then drops duplicate flood copies and frames the node is neither
// relaying nor addressed by, undecoded. The receivers that one delivery
// event reaches on one medium share one scan, one flood identity and one
// lookup in their region's flood table, of which every node's seen-sets
// are views; each receiver still counts the frame (an array bump of a
// declared counter, internal/trace, with no name hashed), records its
// neighbour, tests its own admission bit and dispatches on its own. A
// relay forwards by splicing the received bytes: a flooded request is
// rebroadcast with the relay's route-record entry (its address, or for an
// RREQ its signed hop attestation) inserted and the record count bumped,
// and a source-routed packet or flood-routed DNS control message moves on
// with its TTL and hop index patched. So an AREQ is decoded only at the
// owner of the probed address and at the DNS server, an audit
// advertisement only at the holder of the advertised address, and an RREQ
// only at its destination and at nodes holding a cached route they could
// answer it from; source-routed forwards still decode, because their
// link-failure path reads the packet. The spliced bytes equal the
// re-encoded packet, so outputs match the decode-and-re-encode relay byte
// for byte. Adversarial nodes decode every frame, because their Intercept
// hook sees every frame, then pass the same admission step and relay by
// the same splice. The rx.frames counter counts frames received, not
// decodes.
//
// # Bootstrap admission
//
// Network formation is scheduled by an admission policy (internal/boot).
// The default, BootSerial, starts one DAD claim per stagger — the paper's
// conservative reading, under which every claimant floods into a fully
// configured network, at the price of formation time linear in N.
// BootPerCell instead buckets nodes into grid cells a fraction of the
// radio range on a side and staggers only claimants that share a bucket:
// spatially disjoint neighborhoods bootstrap concurrently, and a 10k-node
// formation closes in a handful of staggers of virtual time (and less
// than half the serial wall clock — see BenchmarkFormation10000).
//
// The equivalence guarantee is deliberately outcome-level, because
// reordering admissions legitimately reorders the simulation: under every
// policy all nodes end fully addressed, addresses are unique, and any
// claim conflicting with an already-admitted owner in the same bucket is
// detected with identical counters — the bucket diagonal is under half a
// range, so the earlier owner hears the later claim directly and its
// objection needs no relays. Each policy is itself byte-for-byte
// deterministic per seed. The formation conformance suite in
// internal/boot (cloned-identity duplicate claims, pre-provisioned name
// conflicts, clean formations, both policies, multiple seeds, -race in
// CI) enforces all of this; quick.Check properties pin the schedule
// itself (per-cell offsets are a permutation-stable function of seed,
// cell and occupancy; same-cell claims never land inside one objection
// window). What per-cell admission gives up is detection that needs
// configured relays before they exist: simultaneous cross-cell
// duplicates (covered for honest nodes by CGA's 2^-64 collision bound,
// and impossible to schedule away for an attacker) and the registration
// of names claimed too far from the DNS anchor for an early flood to
// reach: such a claimant hears no DREP and takes its name as registered,
// but the DNS never heard the claim and nothing sends it again (README's
// section on bootstrap admission has the share of names lost).
// WithBootPolicy selects the policy; WithBootStagger tunes the spacing
// either policy keeps; WithBootCellFraction widens or narrows the
// admission buckets (capped at 1/sqrt(2) of the range, where the bucket
// diagonal reaches one radio range and the direct-reach guarantee would
// break).
//
// # Audit sweep
//
// One-shot DAD only protects claims whose objection window overlaps a
// configured owner inside flood reach. Two duplicate-address shapes
// escape it structurally: simultaneous claims from different admission
// cells, and partition merges — two clusters forming independently and
// meeting later, when no objection window is left to protect anyone.
// WithAuditSweep(period) closes both: every configured node periodically
// re-floods a signed re-advertisement of its CGA binding (per-node phases
// from each node's own audit draw, so sweeps neither synchronize nor
// shift another draw), a node holding a conflicting binding for that
// address objects with its own signed proof, and both claimants resolve
// the conflict deterministically — the binding with the lower full CGA
// digest rekeys and re-runs DAD, and bit-identical bindings (a cloned
// identity) make both sides rekey, since nothing protocol-visible can
// tell original from copy. Scenario.PartitionSpec stages a disjoint
// cluster that merges mid-run, the shape the merge conformance tests
// drive. Verification rides the memo cache and a conflict-free sweep
// verifies nothing at all, so the standing cost is one signature per
// node per period plus TTL-bounded relaying (flat per node with N at
// constant density — BenchmarkAuditSweep asserts both). The sweep is off
// by default, and disabling it is a byte-for-byte no-op, enforced by the
// differential half of the audit conformance suite in internal/audit.
//
// # Verification cache
//
// Every node memoizes its signature verifications in a bounded LRU keyed
// by SHA-256 digests of the full verified content (internal/verifycache).
// CGA bindings are checked directly with cga.Verify: one digest and a
// compare cost less than a memo hit, which digests the same inputs and
// then looks them up. Route records are walked hop by hop on every check:
// a node's flood seen-set admits each request once, so a whole-chain memo
// would not hit. Because a signature check is a pure function of its
// content, a hit is exactly the verdict recomputation would produce:
// cached and uncached runs yield byte-for-byte identical per-seed Results
// (enforced by the differential suite in internal/verifycache,
// adversaries included), and nothing keyed by less than the full content
// or dependent on mutable local state is ever memoized. What changes is
// only the number of primitive crypto operations: re-served CREP
// attestations, repeated RERRs and re-sent forgeries stop costing
// signature verifications. The crypto.verify metric deliberately counts
// logical requests (identical either way); primitive-operation savings
// are reported by the cache's own Stats.
//
// The same cache remembers the node's own signatures. A relay's hop
// attestation covers only its address and the source's sequence number,
// and every node's request counter starts at 1, so relays sign
// byte-identical messages again for every source whose counter reaches
// the same value. Node signatures (hop attestations, RREQ-source, RREP,
// CREP and RERR) go through an 8-slot memo keyed by the exact signed
// bytes, allocated on a node's first signature. A hit is sound because
// both suites sign deterministically (Ed25519, RSA PKCS#1 v1.5) and the
// whole message is compared, so an address change is a new message.
// crypto.sign stays a logical count, like crypto.verify; the primitives
// made and avoided are Stats.SignMisses and Stats.SignHits.
// The cache is always on and has no option: it changes no result, only
// the CPU a run spends.
//
// # The region-sharded core
//
// Every scenario runs on the region-sharded engine (internal/shard), at
// one region unless WithShards(n) asks for more: the area is cut into n
// x-sorted equal-count strips, and regions advance in parallel rounds
// bounded by conservative lookahead from the radio propagation delay,
// merging cross-region messages at deterministic barriers. The
// region-ownership rules the engine is built on:
//
//   - Every node belongs to exactly one region, which owns its event
//     heap, radio medium, spatial grid and counters.
//   - No pointer crosses a region boundary. Regions communicate only
//     through immutable messages (broadcast frames, unicast
//     deliveries), exchanged at barriers in region-index order and
//     scheduled under the global (time, owner, seq) event ordering.
//   - Radio randomness is content-derived, so a draw's value does not
//     depend on which region performs it or in what order. The medium
//     has no other random source.
//   - A region's horizon is sound against feedback: its own first
//     boundary-crossing send at time u tightens the remaining horizon
//     to u+2L, so a peer's reaction can never land in this region's
//     virtual past.
//
// Under those rules the merged Result is byte-for-byte identical at
// every shard count — proven by the differential suite in
// internal/shard across static, mobile and adversarial scenarios, five
// seeds, shard counts {1,2,4,8}, under -race in CI — and a scenario
// without WithShards equals one with WithShards(1).
//
// # Static analysis
//
// The determinism disciplines those differential suites check
// dynamically are also machine-checked statically: cmd/sbr6lint runs
// five analyzers over the sim-path packages on every commit (via go vet
// -vettool in CI) — maprange (no map-iteration order on sim paths),
// walltime (no wall clock, no global math/rand), simrng (no math/rand,
// math/rand/v2 or crypto/rand: every draw comes from internal/draw, and
// crypto/rand stays confined to identity keygen), globalstate (no
// package-level mutable vars) and directverify (no direct
// identity.PublicKey.Verify calls bypassing the memoized signature
// check).
// Exceptions require a reasoned //sbr6:allow or //sbr6:commutative
// annotation, inventoried by `sbr6lint -list-allows`. globalstate in
// particular is what makes the region-sharded core's ownership rules
// hold tree-wide: state that isn't package-global cannot be shared
// between regions by accident. See the README's "Static analysis"
// section.
//
// Layout:
//
//	.                    public facade: options, Runner, Session, Observer
//	internal/core        the full secure node stack (the paper's contribution)
//	internal/audit       post-formation address audit sweep
//	internal/boot        bootstrap admission policies
//	internal/shard       region-sharded parallel simulation engine
//	internal/{sim,geom,mobility,radio}   simulation substrate
//	internal/{ipv6,cga,identity,wire}    addressing, crypto and wire format
//	internal/{ndp,dnssrv,dsr,credit}     protocol building blocks
//	internal/attack      Section 4 adversaries
//	internal/daemon      JSON-RPC 2.0 control plane for served sessions
//	internal/scenario    the internal experiment harness the facade compiles to
//	internal/experiments every table/figure/attack regenerated (T1..E6)
//	internal/lint        the sbr6lint analyzer framework, analyzers and fixtures
//	cmd/sbr6lint         determinism/state-ownership static analysis gate
//	cmd/sbrbench         experiment runner
//	cmd/manetsim         general simulator CLI (single runs and parallel batches)
//	examples/            quickstart, rescue, battlefield, nameserver
//
// The benchmark file in this directory holds one testing.B benchmark per
// reproduced artifact, mirroring the experiment ids that `sbrbench -list`
// enumerates and internal/experiments/experiments.go indexes.
package sbr6
