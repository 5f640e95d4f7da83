package core

// Failure-injection tests: the §3.2 machinery carries four load-bearing
// invariants that the machines assert at runtime —
//
//  1. token staggering: tokens visit a node in exactly one round
//     (otherwise colliding paths could both survive and the selected
//     augmentations would not be disjoint);
//  2. commit routing: a commit wave may only retrace the recorded winning
//     token's route;
//  3. BFS direction: an X node only ever hears a count from its mate;
//  4. leaders only launch tokens: a free Y leader never receives one.
//
// These tests deliberately break each invariant, on both the plain
// machines (flat.go) and their strict-CONGEST twins (flat_strict.go), and
// verify the runtime assertion trips (ablation A1 in EXPERIMENTS.md). If
// someone "optimizes" away the staggering, the panic — not silent
// corruption — is the failure mode.

import (
	"strings"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// phaseKit builds one form's sub-machines over a shared env: the plain
// §3.2 machines, or their strict-CONGEST twins at 3-bit capacity on g's
// window dims (so every window spans several sub-rounds).
type phaseKit struct {
	name   string
	bfs    func(env *phaseEnv, ell int) (dist.Machine, *bfsResult)
	token  func(env *phaseEnv, bfs *bfsResult, ell int) dist.Machine
	commit func(env *phaseEnv, rec *tokenRecord, ell int) dist.Machine
	aug    func(env *phaseEnv, ell int) dist.Machine
	// forge is a one-message count (kind 0), token (kind 1) or commit
	// (kind 2) in this form's wire format.
	forge func(kind uint8, value int32) dist.Message
}

func phaseKits(g *graph.Graph) []phaseKit {
	d := func(ell int) strictDims { return dims(g.N(), g.MaxDegree(), ell, 3) }
	return []phaseKit{
		{
			name: "plain",
			bfs: func(env *phaseEnv, ell int) (dist.Machine, *bfsResult) {
				m := &bfsMachine{}
				m.reset(env, ell)
				return m, &m.res
			},
			token: func(env *phaseEnv, bfs *bfsResult, ell int) dist.Machine {
				m := &tokenMachine{}
				m.reset(env, bfs, ell)
				return m
			},
			commit: func(env *phaseEnv, rec *tokenRecord, ell int) dist.Machine {
				m := &commitMachine{}
				m.reset(env, rec, ell)
				return m
			},
			aug: func(env *phaseEnv, ell int) dist.Machine {
				m := &augmentMachine{}
				m.reset(env, ell, true, 0)
				return m
			},
			forge: func(kind uint8, value int32) dist.Message {
				switch kind {
				case 0:
					return cnt(value)
				case 1:
					return token{val: 0.5, leader: value, bits: 8}
				}
				return commit{leader: value, nbits: 4}
			},
		},
		{
			name: "strict",
			bfs: func(env *phaseEnv, ell int) (dist.Machine, *bfsResult) {
				m := &strictBFSMachine{}
				m.reset(env, ell, d(ell))
				return m, &m.res
			},
			token: func(env *phaseEnv, bfs *bfsResult, ell int) dist.Machine {
				m := &strictTokenMachine{}
				m.reset(env, bfs, ell, d(ell))
				return m
			},
			commit: func(env *phaseEnv, rec *tokenRecord, ell int) dist.Machine {
				m := &strictCommitMachine{}
				m.reset(env, rec, ell, d(ell))
				return m
			},
			aug: func(env *phaseEnv, ell int) dist.Machine {
				m := &strictAugmentMachine{}
				m.reset(env, ell, d(ell), true, 0)
				return m
			},
			forge: func(kind uint8, value int32) dist.Message {
				return chunk{payload: uint64(value) & 1, bits: 1, kind: kind}
			},
		},
	}
}

// nodeEnv is the full-participation env of nd under matching m.
func nodeEnv(nd *dist.Node, m *graph.Matching) *phaseEnv {
	return &phaseEnv{
		st:          MatchState{MatchedPort: matchedPortOf(nd, int32(m.MatchedEdge(nd.ID())))},
		side:        nd.Side(),
		participate: true,
		active:      allPorts,
	}
}

// mustPanicWith runs f and fails unless it panics with a message
// containing want.
func mustPanicWith(t *testing.T, label, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: run completed; want a %q panic", label, want)
		}
		if !strings.Contains(panicText(r), want) {
			t.Fatalf("%s: unexpected panic: %v", label, r)
		}
	}()
	f()
}

// destaggeredGraph builds an instance with augmenting paths of lengths 1
// and 3 sharing their free X endpoint:
//
//	y1* — x0* — y2 ══ x2 — y3*
//
// d(y1) = 1 and d(y3) = 3, so correctly staggered tokens both reach x0 in
// the final round; launching both at round 0 delivers them to x0 in
// different rounds.
func destaggeredGraph() (*graph.Graph, *graph.Matching) {
	b := graph.NewBuilder(5)
	// x0=0, x2=1 on side X; y1=2, y2=3, y3=4 on side Y.
	b.SetSide(0, 0)
	b.SetSide(1, 0)
	b.SetSide(2, 1)
	b.SetSide(3, 1)
	b.SetSide(4, 1)
	b.AddEdge(0, 2) // x0-y1
	b.AddEdge(0, 3) // x0-y2
	b.AddEdge(1, 3) // x2=y2 (matched)
	b.AddEdge(1, 4) // x2-y3
	g := b.MustBuild()
	m := graph.NewMatching(5)
	m.Match(g, g.EdgeBetween(1, 3))
	return g, m
}

func TestTokenTimingInvariant(t *testing.T) {
	g, m := destaggeredGraph()
	const ell = 3
	for _, kit := range phaseKits(g) {
		mustPanicWith(t, kit.name, "token timing violation", func() {
			dist.RunFlat(g, dist.Config{Seed: 1}, func(nd *dist.Node) dist.RoundProgram {
				env := nodeEnv(nd, m)
				bfs, res := kit.bfs(env, ell)
				stage := 0
				seq := &dist.Seq{}
				seq.Reset(func(*dist.Node) dist.Machine {
					stage++
					switch stage {
					case 1:
						return bfs
					case 2:
						// Sabotage: pretend every leader is at full distance
						// so all launch in round 0 — the de-staggering
						// ablation.
						if res.leader {
							res.dist = ell
						}
						return kit.token(env, res, ell)
					}
					return nil
				})
				return dist.AsProgram(seq, nil)
			})
		})
	}
}

func TestCorrectStaggeringPassesOnSameInstance(t *testing.T) {
	// The same instance with honest distances must work and augment both
	// disjoint paths eventually.
	g, m := destaggeredGraph()
	for _, kit := range phaseKits(g) {
		matchedEdge := make([]int32, g.N())
		dist.RunFlat(g, dist.Config{Seed: 1}, func(nd *dist.Node) dist.RoundProgram {
			env := nodeEnv(nd, m)
			return dist.AsProgram(kit.aug(env, 3), func(nd *dist.Node) {
				writeBack(nd, &env.st, matchedEdge)
			})
		})
		if res := graph.CollectMatching(g, matchedEdge); res.Size() != 2 {
			t.Fatalf("%s: expected both augmenting paths applied, size %d", kit.name, res.Size())
		}
	}
}

// oneEdge is the bipartite graph x0 — y1 with nothing matched.
func oneEdge() *graph.Graph {
	b := graph.NewBuilder(2)
	b.SetSide(0, 0)
	b.SetSide(1, 1)
	b.AddEdge(0, 1)
	return b.MustBuild()
}

// forger sends one forged message on port 0 in its only segment; the
// message is still delivered after the program finishes.
type forger struct{ msg dist.Message }

func (f forger) Init(nd *dist.Node) bool {
	nd.Send(0, f.msg)
	return false
}

func (forger) OnRound(*dist.Node, []dist.Incoming) bool { return false }

func TestCommitRouteInvariant(t *testing.T) {
	// A rogue commit message arriving at a node that never forwarded a
	// token must trip the route assertion.
	g := oneEdge()
	for _, kit := range phaseKits(g) {
		mustPanicWith(t, kit.name, "commit route violation", func() {
			dist.RunFlat(g, dist.Config{Seed: 2}, func(nd *dist.Node) dist.RoundProgram {
				if nd.ID() == 0 {
					// Forge a commit without any token phase.
					return forger{kit.forge(2, 7)}
				}
				env := nodeEnv(nd, graph.NewMatching(2))
				return dist.AsProgram(kit.commit(env, &tokenRecord{inPort: -1, outPort: -1}, 1), nil)
			})
		})
	}
}

func TestCountingRejectsNonMateMessageToX(t *testing.T) {
	// An X node receiving a count on a non-mate port violates the BFS
	// schedule (only Y→mate messages reach X nodes).
	g := oneEdge()
	for _, kit := range phaseKits(g) {
		mustPanicWith(t, kit.name, "received count on non-mate port", func() {
			dist.RunFlat(g, dist.Config{Seed: 3}, func(nd *dist.Node) dist.RoundProgram {
				if nd.ID() == 1 {
					// Y forges a count to a free X node it is not matched to.
					return forger{kit.forge(0, 1)}
				}
				// X is matched to nobody but claims a mate on a different
				// port to pass the free check; receives the rogue count on
				// port 0.
				env := &phaseEnv{st: MatchState{MatchedPort: 99}, side: 0, participate: true, active: allPorts}
				bfs, _ := kit.bfs(env, 2)
				return dist.AsProgram(bfs, nil)
			})
		})
	}
}

func TestLeaderNeverReceivesToken(t *testing.T) {
	// A leader at BFS distance 1 launches in the last of 3 token rounds; a
	// rogue token reaching it earlier must trip the launch assertion.
	g := oneEdge()
	for _, kit := range phaseKits(g) {
		mustPanicWith(t, kit.name, "leader also received a token", func() {
			dist.RunFlat(g, dist.Config{Seed: 4}, func(nd *dist.Node) dist.RoundProgram {
				if nd.ID() == 0 {
					return forger{kit.forge(1, 0)}
				}
				env := nodeEnv(nd, graph.NewMatching(2))
				bfs := &bfsResult{visited: true, dist: 1, counts: []float64{1}, total: 1, leader: true}
				return dist.AsProgram(kit.token(env, bfs, 3), nil)
			})
		})
	}
}

func TestStrictRejectsForeignChunkKind(t *testing.T) {
	// A strict window reassembles one kind of value; a chunk of another
	// kind arriving mid-window is a schedule violation.
	g := oneEdge()
	mustPanicWith(t, "strict", "strict mode received kind 2 during kind 0 window", func() {
		dist.RunFlat(g, dist.Config{Seed: 5}, func(nd *dist.Node) dist.RoundProgram {
			if nd.ID() == 0 {
				return forger{chunk{payload: 1, bits: 1, kind: 2}}
			}
			bfs, _ := phaseKits(g)[1].bfs(nodeEnv(nd, graph.NewMatching(2)), 1)
			return dist.AsProgram(bfs, nil)
		})
	})
}

func panicText(v any) string {
	if e, ok := v.(error); ok {
		return e.Error()
	}
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}
