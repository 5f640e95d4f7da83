// Package dist is the round-synchronous message-passing engine underneath
// every distributed algorithm in this module. A simulation instantiates
// one logical processor per graph node, runs a RoundProgram on each of
// them in lockstep, and returns the aggregate execution cost as a *Stats:
//
//	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram { ... })
//
// # Programming model
//
// A RoundProgram is the synchronous model of the paper as written: each
// round a node receives, computes and sends. Per-node state lives in the
// program value; the engine calls Init(nd) once in round 0 and
// OnRound(nd, in) once per later round, where in holds the messages the
// round just ended delivered, as Incoming{Port, Msg} in increasing port
// order (valid until the node's next OnRound). A node addresses its
// neighbors only through local port numbers 0..Deg()-1 (the standard
// anonymous-network convention; the graph package precomputes the port
// tables). Within a segment:
//
//   - Send(port, msg) / SendAll(msg) buffer a message for delivery at the
//     end of the current round. At most one message per (sender, port) per
//     round is retained — sending twice on a port overwrites, as a real
//     link would if the protocol violated the one-message-per-round rule.
//   - SubmitOr(b) / SubmitMax(x) make the ending round an oracle round: a
//     global OR / max over the values submitted by all continuing nodes —
//     the convergence oracle — read with GlobalOr / GlobalMax at the start
//     of the next OnRound. Each use is tallied per node in
//     Stats.OracleCalls (a real network would spend Θ(diameter) rounds per
//     call; see DESIGN.md §2).
//
// Returning true continues into another round; returning false finishes
// the program, and messages sent in the final segment are still
// delivered. The simulation runs until every program has finished. All
// continuing nodes must agree on the kind of round: one in which some
// submit to an oracle and others don't is a protocol desync and makes the
// engine panic rather than silently misaggregate.
//
// Protocols compose sub-protocols with the Machine interface and the Seq
// combinator (machine.go): state-machine fragments — a counting BFS
// feeding an MIS token walk feeding a commit broadcast, repeated per
// phase — chained into one RoundProgram. Israeli–Itai, Luby's MIS, the
// LPR weight classes, LocalGreedy and every internal/core algorithm are
// written this way, and committed golden digests pin their outputs (see
// DESIGN.md §1).
//
// For many short runs on one graph (seed sweeps, per-slot schedules),
// Runner (runner.go) amortizes engine setup — slabs, dest tables, the
// worker pool — across runs, bit-identical to fresh RunFlat calls.
// A Runner's topology is also mutable between runs (mutable.go): an
// edge activation mask (dead edges drop all traffic in the send path,
// so any protocol runs as if on the live subgraph) and a weight overlay
// turn the fixed CSR slab into a mutable arc set — the substrate of
// internal/dynamic's incremental matching maintainer.
//
// A run may further be restricted to a node subset (active.go):
// Config.ActiveSet for one-shot runs, SetActive / ActivateNode /
// ExpandByHops / ClearActive on a Runner. Inactive nodes execute no
// program segments, send and receive nothing, and their RNG streams do
// not advance, so per-round sweep cost — and, on a Runner, per-run reset
// cost — is O(active), not O(n). A run over an active set is
// bit-identical to a full-sweep run of a protocol whose excluded nodes
// are silent observers; only Stats.NodeRounds and Stats.OracleCalls
// (honest work accounting) differ. This is what makes regional repair
// on a large slab cost ∝ region (DESIGN.md §1 and §6).
//
// # Execution model
//
// The engine is built for throughput (BenchmarkEngineRoundFlat tracks it
// in node-rounds/s):
//
//   - Mailboxes are flat and CSR-indexed: one slot per directed arc,
//     double-buffered, with exactly one writer per slot, so there is no
//     contention and no queue; the barrier flips the buffers. Steady-state
//     rounds allocate nothing, and the port tables are cached per graph
//     across runs.
//   - A worker pool (Config.Workers, default GOMAXPROCS) owns contiguous
//     node chunks; workers step their nodes one interface call at a time
//     while the nodes fold the reductions (global OR/max, traffic
//     accounting) into chunk-local accumulators, and the engine combines
//     the per-chunk partials at the barrier.
//   - Every node draws randomness from its own deterministic stream,
//     forked from Config.Seed by node id (rng.ForkSeed). Together with
//     fixed mailbox slots and associative-commutative reductions this
//     makes runs bit-identical regardless of worker count or scheduling.
//
// See DESIGN.md §1 for measured round-rate numbers and the scaling model.
//
// # LOCAL vs CONGEST bit accounting
//
// The engine itself is model-agnostic: it delivers arbitrary Message
// values. The LOCAL/CONGEST distinction lives entirely in the accounting,
// following the convention of Lotker–Patt-Shamir–Pettie (and the message
// sizes stressed by Fischer's deterministic rounding and the
// communication-complexity lower bounds of Huang et al., see PAPERS.md):
// every Message declares its own width via Bits(), and the engine records
// the total (Stats.Bits), the per-round peak, and the overall peak
// (Stats.MaxMessageBits). A CONGEST algorithm is one whose MaxMessageBits
// stays O(log n) — asserted by tests, not assumed — while the generic
// LOCAL-model algorithm's neighborhoods show up as Θ(|V|+|E|)-bit
// messages. Stats.PipelinedRounds(c) converts a LOCAL execution into the
// round count it would cost if every message were pipelined in c-bit
// chunks (the Lemma 3.7 transformation); internal/core's strict mode
// executes that transformation for real and matches the estimate.
package dist
