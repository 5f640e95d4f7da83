package dist

import "fmt"

// Stats is the aggregate cost of one run.
type Stats struct {
	// Rounds is the number of synchronous rounds executed: one per barrier
	// reached by at least one running node (a RoundProgram returning true).
	Rounds int
	// Messages is the total number of Send operations across all nodes
	// and rounds (sent, not necessarily read by the receiver).
	Messages int64
	// Bits is the total traffic volume: the sum of Message.Bits() over
	// all sends.
	Bits int64
	// MaxMessageBits is the width of the largest single message observed —
	// the CONGEST-vs-LOCAL telltale.
	MaxMessageBits int
	// NodeRounds counts node program segments actually executed: every
	// round adds the number of nodes stepped in it. On a full sweep this
	// is ≈ Rounds × n; under active-set execution (Config.ActiveSet,
	// Runner.SetActive) only active nodes are stepped, so NodeRounds —
	// unlike Rounds, which is the protocol's logical length — measures
	// the engine's real sweep work and scales with the active set.
	NodeRounds int64
	// OracleCalls counts per-node uses of the global aggregation oracle:
	// each SubmitOr/SubmitMax round adds one per participating (active)
	// node.
	// A real network pays Θ(diameter) rounds per aggregation; experiment
	// notes convert with graph.Diameter (see DESIGN.md §2).
	OracleCalls int64
	// SuppressedMessages counts traffic lost to injected faults (see
	// fault.go): sends addressed to crashed receivers (charged to
	// Messages/Bits, then discarded), in-flight messages cleared by a
	// crash, and messages removed by drop events. Always 0 on a
	// fault-free run.
	SuppressedMessages int64
	// CrashedNodes counts FaultCrash events that removed a running
	// participant this run.
	CrashedNodes int
	// Profile holds one entry per round when Config.Profile is set; nil
	// otherwise.
	Profile []RoundProfile

	// roundMaxBits records the widest message of every round (always
	// tracked; one int32 per round) so PipelinedRounds can re-cost the
	// execution under a bandwidth cap after the fact.
	roundMaxBits []int32
}

// RoundProfile is the traffic of a single round.
type RoundProfile struct {
	// Messages and Bits are the round's send count and volume.
	Messages int64
	Bits     int64
	// MaxBits is the widest message sent this round.
	MaxBits int
	// Oracle marks a SubmitOr/SubmitMax round.
	Oracle bool
}

// PipelinedRounds estimates the round count of this execution if every
// message were pipelined in chunks of capacityBits bits (the Lemma 3.7
// transformation): each round is stretched by ⌈maxBits/capacity⌉, minimum
// 1. internal/core's strict CONGEST mode performs the transformation for
// real; this estimator lets plain runs report the same column (E2's
// "pipelined@logn"). capacityBits <= 0 returns Rounds unchanged.
func (s *Stats) PipelinedRounds(capacityBits int) int {
	if capacityBits <= 0 {
		return s.Rounds
	}
	total := 0
	for _, b := range s.roundMaxBits {
		w := (int(b) + capacityBits - 1) / capacityBits
		if w < 1 {
			w = 1
		}
		total += w
	}
	return total
}

// String implements fmt.Stringer with the cost summary printed by cmd/*.
func (s *Stats) String() string {
	return fmt.Sprintf("rounds=%d messages=%d bits=%d maxMsgBits=%d oracleCalls=%d",
		s.Rounds, s.Messages, s.Bits, s.MaxMessageBits, s.OracleCalls)
}
