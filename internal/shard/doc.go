// Package shard serves an approximate matching from a pool of
// independent dynamic.Maintainers, one per shard, and keeps serving
// through the loss of any of them.
//
// The slab is partitioned side-aware: each bipartition side is split
// into contiguous blocks of nearly equal size, and shard s owns block s
// of each side. An edge whose endpoints land in the same shard is
// internal — it lives in that shard's private sub-slab, maintained by
// the shard's own Maintainer on its own dist.Runner — while an edge that
// crosses shards is pool-owned: the pool mirrors its liveness and
// resolves it outside the per-shard machinery. This is the two-phase
// partition-local / conflict-resolution split of the k-party
// communication model (Huang et al., arXiv:1704.08462): phase one is
// embarrassingly parallel per-shard maintenance touching no cross-shard
// state, phase two a bounded resolution pass over the crossing edges
// whose cost is the pool's entire communication budget.
//
// Every Apply routes its batch to the owning shards (each shard sees its
// restriction of the batch, in order, as one atomic local batch),
// applies all shard batches in parallel, then recomposes the global
// matching: shard matchings are authoritative on internal edges,
// crossing matches survive only while both endpoints stay free of
// internal matches, and a deterministic greedy pass (ascending edge id)
// matches free-free crossing edges. A periodic pool audit first repairs
// the composed matching over the alternating region of every node
// touched or re-mated since the last certified audit, then runs the
// Berge probe over the full live graph; only a failed probe falls back
// to a warm full repair of the composed matching. Repaired restrictions
// are pushed back into the shards (Maintainer.Adopt): a certified one
// keeps the shard's health, an uncertified one re-enters the shard into
// its own Recovering-until-audited ladder.
//
// The robustness layer is the supervisor: it consumes each Maintainer's
// Health after every Apply and asserts dynamic.ValidTransition (a shard
// observed skipping certification is treated as corrupt and rebuilt),
// fences Degraded shards behind the snapshots they already serve, and
// handles killed or crashed shards by freeing them (Runner slabs
// recycle through the process-wide pool) and cold-rebuilding from the
// pool's authoritative mirror — liveness, weights and the last composed
// matching — after a capped exponential backoff counted in Apply slots,
// so every kill/restart schedule replays bit-identically from its seed.
// While a shard is down its nodes' matches are frozen in the composed
// matching (scrubbed on delete, so never stale-invalid), and queries
// keep answering from the surviving shards with explicit staleness and
// degradation flags instead of failing.
package shard
