package core

import (
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// This file implements the paper's §3.2: Algorithm 3 (counting augmenting
// paths by BFS, Lemma 3.6), the token-walk emulation of Luby's MIS over the
// conflict graph (Lemma 3.7), and the augmentation along the winning
// tokens, assembled into phases ℓ = 1, 3, …, 2k−1 (Theorem 3.8).
//
// The machinery is a set of composable dist.Machine fragments (flat.go)
// so that Algorithm 4 (general.go) can execute it on randomly sampled
// subgraphs: `participate` excludes nodes outside V̂ and `active` masks
// edges outside Ê.

// MatchState is the persistent per-node matching state threaded through the
// protocol phases: the local port of the matched edge, or -1 when free.
type MatchState struct {
	MatchedPort int
}

// cnt is the path-count message of Algorithm 3.
type cnt float64

// Bits charges the binary length of the counter, as Lemma 3.7 does.
func (c cnt) Bits() int { return dist.Count(c).Bits() }

// token carries a leader's priority draw along the BFS DAG. Its size is the
// paper's O(ℓ log Δ + log n): four "digits" of log N bits for the value
// drawn from [1, N⁴] plus a leader identifier.
type token struct {
	val    float64 // u^(1/n_y): one draw representing the max of n_y uniforms
	leader int32
	bits   int
}

func (t token) Bits() int { return t.bits }

// beats orders tokens by (value, leader id); leaders are distinct so the
// order is total.
func (t token) beats(o token) bool {
	if t.val != o.val {
		return t.val > o.val
	}
	return t.leader > o.leader
}

// commit retraces a winning token's path, flipping matched edges.
type commit struct {
	leader int32
	nbits  int
}

func (c commit) Bits() int { return c.nbits }

// tokenBits returns the message size charged for a token: 4·log₂N priority
// bits for N = n·(Δ+1)^{⌈(ℓ+1)/2⌉} conflict-graph nodes, plus a leader id.
func tokenBits(n, maxDeg, ell int) int {
	logN := math.Log2(float64(n)) + float64((ell+1)/2)*math.Log2(float64(maxDeg)+1)
	return int(math.Ceil(4*logN)) + dist.IDBits(n)
}

// PhaseBudget is the fixed per-phase iteration budget used when the
// convergence oracle is disabled: c·log₂N iterations for the conflict graph
// size N = n·Δ^{O(ℓ)} (Lemma 3.7's w.h.p. bound), derived from the shared
// dist.LogBudgetFrac helper (the extra +4 keeps the historical slack).
func PhaseBudget(n, maxDeg, ell int) int {
	logN := math.Log2(float64(n)+1) + float64(ell)*math.Log2(float64(maxDeg)+2)
	return dist.LogBudgetFrac(logN, 4) + 4
}

// bfsResult is the outcome of one counting BFS at one node.
type bfsResult struct {
	visited bool
	dist    int       // d(v): first-reception round
	counts  []float64 // per-port shortest half-augmenting path counts c_v[i]
	total   float64   // n_v = Σ c_v[i]
	leader  bool      // free Y node that recorded counts (endpoint of n_v paths)
}

// tokenRecord remembers the winning token's route through this node.
type tokenRecord struct {
	tok     token
	inPort  int // port the token arrived on (-1 at the originating leader)
	outPort int // port the token was forwarded on (-1 at the terminal free X)
	seen    bool
	arrival int // token round of arrival, for the timing invariant
}

// CountPaths runs only the counting BFS of Algorithm 3 on a fixed matching
// and returns n_v for every node (-1 if the BFS never reached it): the
// number of shortest half-augmenting paths from free X nodes ending at v
// (Lemma 3.6). Exposed for the Lemma 3.6 experiments and as a standalone
// distributed path-counting primitive.
func CountPaths(g *graph.Graph, m *graph.Matching, ell int) ([]float64, *dist.Stats) {
	if !g.IsBipartite() {
		panic("core: CountPaths requires a bipartite graph")
	}
	counts := make([]float64, g.N())
	stats := dist.RunFlat(g, dist.Config{Seed: 1}, func(nd *dist.Node) dist.RoundProgram {
		b := &bfsMachine{}
		b.reset(&phaseEnv{
			st:          MatchState{MatchedPort: matchedPortOf(nd, int32(m.MatchedEdge(nd.ID())))},
			side:        nd.Side(),
			participate: true,
			active:      allPorts,
		}, ell)
		return dist.AsProgram(b, func(nd *dist.Node) {
			counts[nd.ID()] = -1
			if b.res.visited {
				counts[nd.ID()] = b.res.total
			}
		})
	})
	return counts, stats
}

// BipartiteMCM computes a (1−1/k)-approximate maximum cardinality matching
// of the bipartite graph g, distributively, per Theorem 3.8 of the paper:
// O(k³ log Δ + k² log n) rounds with O(ℓ log Δ + log n)-bit messages.
// oracle selects convergence detection (guaranteed approximation) versus
// the paper's fixed w.h.p. budgets.
func BipartiteMCM(g *graph.Graph, k int, seed uint64, oracle bool) (*graph.Matching, *dist.Stats) {
	return BipartiteMCMWithConfig(g, k, dist.Config{Seed: seed}, oracle)
}

// BipartiteMCMWithConfig is BipartiteMCM with full engine configuration
// (per-round traffic profiling, round limits, workers).
func BipartiteMCMWithConfig(g *graph.Graph, k int, cfg dist.Config, oracle bool) (*graph.Matching, *dist.Stats) {
	if k < 1 {
		panic("core: BipartiteMCM requires k >= 1")
	}
	if !g.IsBipartite() {
		panic("core: BipartiteMCM requires a bipartite graph")
	}
	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		env := &phaseEnv{
			st:          MatchState{MatchedPort: -1},
			side:        nd.Side(),
			participate: true,
			active:      allPorts,
		}
		m := &phasesMachine{}
		m.reset(env, k, oracle)
		return dist.AsProgram(m, func(nd *dist.Node) { writeBack(nd, &env.st, matchedEdge) })
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
