// Package israeliitai implements the randomized distributed maximal-matching
// algorithm of Israeli and Itai (Information Processing Letters 1986) — the
// classical ½-approximate maximum cardinality matching that the paper's
// introduction identifies as the baseline ("the basic result"), and the
// ancestor of the PIM and iSLIP switch schedulers.
//
// Each iteration costs three rounds: free nodes flip a coin; heads
// ("proposers") send a proposal over one random live edge; tails
// ("responders") accept one incoming proposal uniformly at random; newly
// matched nodes announce themselves so neighbors retire the dead edges.
// Every iteration removes a constant fraction of the live edges in
// expectation, so O(log n) iterations suffice with high probability.
//
// The protocol is exposed as a composable ClassMachine over a persistent
// State, so that other algorithms (the weight-class (¼−ε)-MWM in
// internal/lpr) can run it repeatedly on changing edge subsets inside a
// single node program.
package israeliitai

import (
	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// State is the per-node protocol state, persistent across repeated
// ClassMachine runs within one node program.
type State struct {
	// Free reports whether this node is still unmatched.
	Free bool
	// MatchedPort is the port of the matched edge, or -1.
	MatchedPort int
	// NbrMatched marks ports whose far endpoint has announced it is matched.
	NbrMatched []bool

	announced bool // this node has already broadcast its own match
}

// NewState returns the initial state for nd.
func NewState(nd *dist.Node) *State {
	return &State{Free: true, MatchedPort: -1, NbrMatched: make([]bool, nd.Deg())}
}

// Reset rearms st for a fresh run on the same node — the allocation-free
// alternative to NewState for batch sweeps (see RunSeeds).
func (st *State) Reset() {
	st.Free, st.MatchedPort, st.announced = true, -1, false
	clear(st.NbrMatched)
}

// Budget returns the default fixed iteration budget giving maximality with
// high probability: dist.LogBudget(n, 8), i.e. 8·⌈log₂ n⌉ + 8.
func Budget(n int) int { return dist.LogBudget(n, 8) }

type proposal struct{ dist.Signal }
type accept struct{ dist.Signal }
type announce struct{ dist.Signal }

func (st *State) match(port int) {
	st.Free = false
	st.MatchedPort = port
}

// Run computes a maximal matching of g distributively. With oracle=true it
// runs to guaranteed maximality using the global-OR termination primitive;
// otherwise it uses the fixed Budget(n) iteration count (maximal w.h.p.).
func Run(g *graph.Graph, seed uint64, oracle bool) (*graph.Matching, *dist.Stats) {
	return RunWithConfig(g, dist.Config{Seed: seed}, oracle)
}

// RunBudget runs exactly iters proposal iterations (three rounds each)
// with no termination oracle — the truncated variant behind the
// constant-expected-time tree result of Hoepman, Kutten and Lotker that
// the paper's introduction cites: on trees (and other sparse graphs) a
// constant budget already yields a (½−ε)-approximate MCM (experiment E12).
func RunBudget(g *graph.Graph, seed uint64, iters int) (*graph.Matching, *dist.Stats) {
	return run(g, dist.Config{Seed: seed}, iters, false)
}

// RunWithConfig is Run with full engine configuration (profiling, limits,
// workers).
func RunWithConfig(g *graph.Graph, cfg dist.Config, oracle bool) (*graph.Matching, *dist.Stats) {
	return run(g, cfg, Budget(g.N()), oracle)
}
