// Package core implements the four algorithms of Lotker, Patt-Shamir and
// Pettie, "Improved Distributed Approximate Matching" (SPAA 2008):
//
//   - GenericMCM — the paper's Algorithm 1/2 (§3.1, Theorem 3.1): a
//     (1−ε)-approximate maximum cardinality matching for general graphs
//     using LOCAL-model messages of up to O(|V|+|E|) size, built from
//     conflict graphs of augmenting paths and a distributed MIS over them.
//
//   - BipartiteMCM — Algorithm 3 (§3.2, Lemmas 3.6/3.7, Theorem 3.8,
//     Figure 1): a (1−1/k)-MCM for bipartite graphs with small messages,
//     via BFS path counting and a token-walk emulation of Luby's MIS.
//
//   - GeneralMCM — Algorithm 4 (§3.3, Theorem 3.11): the randomized
//     reduction from general to bipartite graphs by repeated red/blue
//     sampling.
//
//   - WeightedMWM — Algorithm 5 (§4, Theorem 4.5, Figure 2): the
//     (½−ε)-approximate maximum weight matching obtained by iterating a
//     δ-MWM black box (internal/lpr) on the wrap-gain weights w_M.
//
// All algorithms run as genuine per-node programs on the synchronous
// message-passing engine of internal/dist; every reported round, message
// and bit is actually exchanged.
//
// # Execution
//
// Every algorithm is a dist.RoundProgram: the §3.2 machinery is a set of
// dist.Machine fragments (flat.go, and its strict-CONGEST twin
// flat_strict.go) chained by dist.Seq, and the Algorithm 1/2, 4 and 5
// drivers (flat_generic.go, flat_general.go, flat_weighted.go) are state
// machines over them. The golden tables under testdata/golden/ pin the
// matchings, Stats and per-round profiles of every entry point; see
// DESIGN.md §1 for re-recording them after an intended protocol change.
package core
