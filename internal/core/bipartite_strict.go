package core

import (
	"fmt"
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// This file implements strict CONGEST execution of the §3.2 machinery: the
// pipelining transformation from the proof of Lemma 3.7 applied to every
// message of the bipartite algorithm. Counters, token priorities and
// commits travel in chunks of at most `capacity` bits per round; a hop that
// carries a B-bit value costs ⌈B/c⌉ rounds. Because every hop of a phase
// uses the same window length, the layer-synchronous schedule (and with it
// the collision argument) is preserved verbatim — windows simply replace
// rounds.
//
// BipartiteMCMStrict is observably equivalent to BipartiteMCM up to round
// accounting: Stats.MaxMessageBits stays ≤ capacity and Stats.Rounds grows
// by the ⌈B/c⌉ factors that Stats.PipelinedRounds merely *estimates* for
// the plain variant. Experiment E2's "pipelined@logn" column can thus be
// checked against a real execution (ablation A5).

// chunk is a c-bit slice of a larger value, sent lsb-first within a window.
type chunk struct {
	payload uint64
	bits    int
	kind    uint8 // 0 = count, 1 = token, 2 = commit
}

func (c chunk) Bits() int { return c.bits }

// windows computes the per-hop window lengths for a phase.
type strictDims struct {
	capacity int
	jc       int // window length for counters
	jt       int // window length for token priorities
	jm       int // window length for commits
	countB   int
	tokenB   int
	commitB  int
}

func dims(n, maxDeg, ell, capacity int) strictDims {
	if capacity < 1 {
		panic("core: strict capacity must be >= 1 bit")
	}
	countB := int(math.Ceil(float64((ell+1)/2)*math.Log2(float64(maxDeg)+2))) + 1
	if countB > 63 {
		countB = 63 // counters saturate; they only weight the token sampling
	}
	tokenB := 64 // packed (priority, leader) word, see packPriority
	commitB := dist.IDBits(n)
	d := strictDims{
		capacity: capacity,
		countB:   countB,
		tokenB:   tokenB,
		commitB:  commitB,
	}
	d.jc = (countB + capacity - 1) / capacity
	d.jt = (tokenB + capacity - 1) / capacity
	d.jm = (commitB + capacity - 1) / capacity
	return d
}

// packPriority packs a [0,1) priority draw and a leader id into one 64-bit
// word ordered lexicographically: 40 priority bits then 24 id bits. The id
// makes the order total (n < 2^24).
func packPriority(val float64, leader int) uint64 {
	p := uint64(val * (1 << 40))
	if p >= 1<<40 {
		p = 1<<40 - 1
	}
	return p<<24 | uint64(leader)&(1<<24-1)
}

func leaderOf(packed uint64) int32 { return int32(packed & (1<<24 - 1)) }

// collector reassembles chunked values per port within one window.
type collector struct {
	acc  map[int]uint64
	got  map[int]bool
	kind uint8
	cap  int
}

func newCollector(kind uint8, capacity int) *collector {
	return &collector{acc: map[int]uint64{}, got: map[int]bool{}, kind: kind, cap: capacity}
}

func (c *collector) absorb(in []dist.Incoming, s int) {
	for _, m := range in {
		ch, ok := m.Msg.(chunk)
		if !ok {
			continue
		}
		if ch.kind != c.kind {
			panic(fmt.Sprintf("core: strict mode received kind %d during kind %d window", ch.kind, c.kind))
		}
		c.acc[m.Port] |= ch.payload << uint(s*c.cap)
		c.got[m.Port] = true
	}
}

func saturate(v float64) uint64 {
	if v >= 1<<62 {
		return 1 << 62
	}
	return uint64(v)
}

// BipartiteMCMStrict is BipartiteMCM executed in strict CONGEST mode: no
// message ever exceeds capacityBits bits; every oversized value is
// pipelined chunk by chunk, exactly as the proof of Lemma 3.7 prescribes.
// Typical usage sets capacityBits = ⌈log₂ n⌉.
func BipartiteMCMStrict(g *graph.Graph, k int, seed uint64, capacityBits int, oracle bool) (*graph.Matching, *dist.Stats) {
	return BipartiteMCMStrictWithConfig(g, k, dist.Config{Seed: seed}, capacityBits, oracle)
}

// BipartiteMCMStrictWithConfig is BipartiteMCMStrict with full engine
// configuration (profiling, limits, workers); the chunk pipelining lives
// in flat_strict.go.
func BipartiteMCMStrictWithConfig(g *graph.Graph, k int, cfg dist.Config, capacityBits int, oracle bool) (*graph.Matching, *dist.Stats) {
	if k < 1 {
		panic("core: BipartiteMCMStrict requires k >= 1")
	}
	if !g.IsBipartite() {
		panic("core: BipartiteMCMStrict requires a bipartite graph")
	}
	if g.N() >= 1<<24 {
		panic("core: strict mode packs leader ids into 24 bits; n too large")
	}
	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		env := &phaseEnv{
			st:          MatchState{MatchedPort: -1},
			side:        nd.Side(),
			participate: true,
			active:      allPorts,
		}
		m := &strictPhasesMachine{}
		m.reset(env, k, oracle, capacityBits)
		return dist.AsProgram(m, func(nd *dist.Node) { writeBack(nd, &env.st, matchedEdge) })
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
