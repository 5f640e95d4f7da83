package dist

// Hand-audited work accounting: NodeRounds and OracleCalls asserted
// against closed-form totals computed by hand, so the per-chunk
// amortized reductions (each worker accumulates parked/done/orCnt
// privately; combine folds them once per round) are proven exact — not
// just self-consistent across worker counts — under multi-worker sweeps,
// early-done nodes and active-set execution.

import (
	"testing"

	"distmatch/internal/gen"
	"distmatch/internal/rng"
)

// auditCountdown runs exactly id+1 segments at node id: Init plus id
// oracle-parked OnRounds. Every parked segment submits to the global OR,
// so every charged round is an oracle round.
type auditCountdown struct{ left int }

func (c *auditCountdown) Init(nd *Node) bool {
	if c.left == 0 {
		return false
	}
	nd.SubmitOr(false)
	return true
}

func (c *auditCountdown) OnRound(nd *Node, in []Incoming) bool {
	c.left--
	if c.left == 0 {
		return false
	}
	nd.SubmitOr(false)
	return true
}

// TestNodeRoundsExactAudit pins the full-sweep totals. With node id
// running id+1 segments on n nodes:
//
//	sweep r (1-based) steps the n-(r-1) nodes with id+1 >= r and parks
//	the n-r nodes with id+1 > r, so
//	NodeRounds  = Σ_{id} (id+1)    = n(n+1)/2
//	OracleCalls = Σ_{r=1..n} (n-r) = n(n-1)/2
//	Rounds      = n-1  (the last sweep parks nobody and charges nothing)
//
// The totals must hold bit-exactly at every worker count — any
// chunk-reduction merge bug (lost worker counter, double fold) breaks
// them.
func TestNodeRoundsExactAudit(t *testing.T) {
	const n = 37 // odd and prime: never divides evenly into worker chunks
	g := gen.Gnp(rng.New(5), n, 0.1)
	wantNodeRounds := int64(n * (n + 1) / 2)
	wantOracle := int64(n * (n - 1) / 2)
	wantRounds := n - 1
	check := func(label string, st *Stats) {
		t.Helper()
		if st.NodeRounds != wantNodeRounds {
			t.Errorf("%s: NodeRounds = %d, want %d", label, st.NodeRounds, wantNodeRounds)
		}
		if st.OracleCalls != wantOracle {
			t.Errorf("%s: OracleCalls = %d, want %d", label, st.OracleCalls, wantOracle)
		}
		if st.Rounds != wantRounds {
			t.Errorf("%s: Rounds = %d, want %d", label, st.Rounds, wantRounds)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		st := RunFlat(g, Config{Seed: 1, Workers: workers}, func(nd *Node) RoundProgram {
			return &auditCountdown{left: nd.ID()}
		})
		check("w="+string(rune('0'+workers)), st)
	}
}

// TestNodeRoundsExactAuditActive is the same audit under active-set
// execution: only nodes {1, 4, 9} of 10 run, so with node id running
// id+1 segments,
//
//	NodeRounds  = 2 + 5 + 10 = 17
//	OracleCalls = Σ_{r=1..10} |{v ∈ S : v ≥ r}|
//	            = 3+2+2+2+1+1+1+1+1+0 = 14
//	Rounds      = 9  (sweep 10 parks nobody)
//
// Inactive nodes must contribute nothing to either counter.
func TestNodeRoundsExactAuditActive(t *testing.T) {
	g := gen.Gnp(rng.New(6), 10, 0.2)
	active := []int32{1, 4, 9}
	for _, workers := range []int{1, 3, 8} {
		st := RunFlat(g, Config{Seed: 2, Workers: workers, ActiveSet: active}, func(nd *Node) RoundProgram {
			return &auditCountdown{left: nd.ID()}
		})
		if st.NodeRounds != 17 {
			t.Errorf("w=%d: NodeRounds = %d, want 17", workers, st.NodeRounds)
		}
		if st.OracleCalls != 14 {
			t.Errorf("w=%d: OracleCalls = %d, want 14", workers, st.OracleCalls)
		}
		if st.Rounds != 9 {
			t.Errorf("w=%d: Rounds = %d, want 9", workers, st.Rounds)
		}
	}
}
