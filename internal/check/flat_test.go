package check

// Golden-digest suites for the verification protocol: report, rounds,
// messages, bits, peak width, oracle calls and per-round profile on
// valid, broken and improvable matchings, with and without a live-edge
// mask. The digests were recorded while the retired blocking form of the
// protocol was asserted bit-identical to this one.

import (
	"fmt"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/golden"
	"distmatch/internal/graph"
	"distmatch/internal/israeliitai"
	"distmatch/internal/rng"
)

func runCheck(t *testing.T, tab *golden.Table, label string, g *graph.Graph, matchedEdge []int32, probeLen int) Report {
	t.Helper()
	rep := Report{ShortestAug: -2}
	st := dist.RunFlat(g, dist.Config{Seed: 11, Profile: true}, program(matchedEdge, probeLen, &rep))
	tab.Check(t, fmt.Sprintf("%s/probe=%d", label, probeLen), golden.New().Add(rep).Stats(st))
	return rep
}

func TestFlatMatchesBlocking(t *testing.T) {
	tab := golden.Open(t, "check")
	for _, probe := range []int{0, 3, 5} {
		// A maximal matching from Israeli–Itai on a bipartite graph.
		g := gen.BipartiteGnp(rng.New(5), 14, 12, 0.25)
		m, _ := israeliitai.Run(g, 3, true)
		me := make([]int32, g.N())
		for v := range me {
			me[v] = int32(m.MatchedEdge(v))
		}
		rep := runCheck(t, tab, "maximal", g, me, probe)
		if !rep.Valid || !rep.Maximal {
			t.Fatalf("probe=%d: maximal matching rejected: %+v", probe, rep)
		}

		// An empty matching on the same graph: invalid it is not, maximal
		// it is not (if any edge exists), and every augmenting path has
		// length 1.
		empty := make([]int32, g.N())
		for v := range empty {
			empty[v] = -1
		}
		rep = runCheck(t, tab, "empty", g, empty, probe)
		if g.M() > 0 && (rep.Maximal || (probe > 0 && rep.ShortestAug != 1)) {
			t.Fatalf("probe=%d: empty matching misjudged: %+v", probe, rep)
		}

		// A deliberately asymmetric assignment must be flagged invalid by
		// both forms identically.
		bad := make([]int32, g.N())
		for v := range bad {
			bad[v] = -1
		}
		if g.M() > 0 {
			x, _ := g.Endpoints(0)
			bad[x] = 0 // one endpoint claims edge 0, the other doesn't
			rep = runCheck(t, tab, "asymmetric", g, bad, probe)
			if rep.Valid {
				t.Fatalf("probe=%d: asymmetric assignment accepted", probe)
			}
		}

		// Non-bipartite: the Berge probe is skipped by both forms.
		ng := gen.Cycle(9)
		none := make([]int32, ng.N())
		for v := range none {
			none[v] = -1
		}
		rep = runCheck(t, tab, "nonbipartite", ng, none, probe)
		if rep.ShortestAug != -2 {
			t.Fatalf("probe=%d: Berge probe ran on a non-bipartite graph", probe)
		}
	}
}

// TestFlatMatchesBlockingOnRunner pins the mutable-topology path the
// Maintainer audits through: a Runner with a live-edge mask, including a
// dead matched edge (which must be reported invalid).
func TestFlatMatchesBlockingOnRunner(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(9), 10, 10, 0.3)
	if g.M() < 4 {
		t.Skip("degenerate random graph")
	}
	me := make([]int32, g.N())
	for v := range me {
		me[v] = -1
	}
	x, y := g.Endpoints(1)
	me[x], me[y] = 1, 1

	tab := golden.Open(t, "check_runner")
	for _, deadMatched := range []bool{false, true} {
		r := dist.NewRunner(g, dist.Config{Profile: true})
		r.SetEdgeLive(0, false)
		if deadMatched {
			r.SetEdgeLive(1, false)
		}
		flatRep := Report{ShortestAug: -2}
		flatSt := r.RunFlat(21, program(me, 3, &flatRep))
		tab.Check(t, fmt.Sprintf("dead=%v", deadMatched), golden.New().Add(flatRep).Stats(flatSt))
		if flatRep.Valid != !deadMatched {
			t.Fatalf("deadMatched=%v: Valid=%v", deadMatched, flatRep.Valid)
		}
		r.Close()
	}
}
