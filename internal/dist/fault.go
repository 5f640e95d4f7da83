package dist

// Deterministic fault injection. A FaultPlan is a seeded, replayable list
// of fault events the engine consults at round boundaries, between
// sweeps, which is what makes a faulted run bit-identical across worker
// counts and across replays of the same seed.
//
// Fault taxonomy and the determinism contract:
//
//   - FaultCrash(node) at boundary r: the node executes rounds < r in
//     full, then goes permanently silent. Its program is marked done, its
//     undelivered inbox is cleared, and every later message addressed to
//     it is suppressed at the send — charged to Stats.Messages/Bits like
//     any send (the sender cannot know the receiver is dead) and counted
//     in Stats.SuppressedMessages. This reuses the PR-4 overlay send
//     path: a dead *edge* is a link that does not exist (uncharged), a
//     crashed *receiver* is traffic paid for and lost.
//   - FaultDrop(edge) at boundary r: the messages in flight on that edge
//     (sent during round r−1, not yet delivered) are dropped, one count
//     per suppressed message. A drop is one-shot; the edge stays up.
//   - FaultPanic(node) at boundary r: the run aborts exactly as if the
//     node's program had panicked — the engine cancels every live
//     program and re-panics an *InjectedPanic in the caller. The Runner
//     slab stays reusable, like any program panic.
//
// Events fire in (Round, insertion-order) — sorted stably by round at plan
// construction — and a plan is immutable once built, so one plan can be
// shared across runs and Runners. Events aimed at nodes that
// are already done, already crashed, or outside the run's active set are
// skipped (deterministically). Events scheduled past the run's last
// round never fire.

import (
	"fmt"
	"slices"

	"distmatch/internal/rng"
)

// FaultKind enumerates the injectable fault classes.
type FaultKind uint8

const (
	// FaultCrash permanently silences a node from the event's round on.
	FaultCrash FaultKind = iota
	// FaultDrop discards the messages in flight on one edge at the
	// event's round boundary.
	FaultDrop
	// FaultPanic aborts the run with an *InjectedPanic, as if the node's
	// program had panicked at the round boundary.
	FaultPanic
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultDrop:
		return "drop"
	case FaultPanic:
		return "panic"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultEvent is one scheduled fault. Round is the 0-based boundary before
// the engine's Round-th sweep: a crash at round 0 removes the node before
// it executes anything. Node addresses FaultCrash/FaultPanic, Edge
// addresses FaultDrop; the unused field is ignored.
type FaultEvent struct {
	Round int
	Kind  FaultKind
	Node  int
	Edge  int
}

func (ev FaultEvent) String() string {
	if ev.Kind == FaultDrop {
		return fmt.Sprintf("@%d drop(edge %d)", ev.Round, ev.Edge)
	}
	return fmt.Sprintf("@%d %s(node %d)", ev.Round, ev.Kind, ev.Node)
}

// FaultPlan is an immutable, replayable fault schedule. Install it on a
// run with Config.Faults or on a warm engine with Runner.SetFaultPlan;
// the same plan replays identically on every run.
type FaultPlan struct {
	events []FaultEvent
}

// NewFaultPlan builds a plan from events (copied; the argument is not
// retained). Events are ordered by round, stably, so same-round events
// fire in argument order. Negative rounds, node/edge ids, or unknown
// kinds panic; upper bounds are checked against the graph at install.
func NewFaultPlan(events []FaultEvent) *FaultPlan {
	evs := slices.Clone(events)
	for _, ev := range evs {
		if ev.Round < 0 {
			panic(fmt.Sprintf("dist: fault event with negative round: %v", ev))
		}
		switch ev.Kind {
		case FaultCrash, FaultPanic:
			if ev.Node < 0 {
				panic(fmt.Sprintf("dist: fault event with negative node: %v", ev))
			}
		case FaultDrop:
			if ev.Edge < 0 {
				panic(fmt.Sprintf("dist: fault event with negative edge: %v", ev))
			}
		default:
			panic(fmt.Sprintf("dist: unknown fault kind %d", ev.Kind))
		}
	}
	slices.SortStableFunc(evs, func(a, b FaultEvent) int { return a.Round - b.Round })
	return &FaultPlan{events: evs}
}

// Events returns a copy of the plan's events in firing order.
func (p *FaultPlan) Events() []FaultEvent { return slices.Clone(p.events) }

// Len returns the number of scheduled events.
func (p *FaultPlan) Len() int { return len(p.events) }

func (p *FaultPlan) String() string {
	crashes, drops, panics := 0, 0, 0
	for _, ev := range p.events {
		switch ev.Kind {
		case FaultCrash:
			crashes++
		case FaultDrop:
			drops++
		case FaultPanic:
			panics++
		}
	}
	return fmt.Sprintf("FaultPlan{crashes=%d drops=%d panics=%d}", crashes, drops, panics)
}

// validateFor bounds-checks the plan against a graph with n nodes and m
// edges; called once at install so the hot path never re-checks.
func (p *FaultPlan) validateFor(n, m int) {
	for _, ev := range p.events {
		switch ev.Kind {
		case FaultCrash, FaultPanic:
			if ev.Node >= n {
				panic(fmt.Sprintf("dist: fault event %v targets node outside [0,%d)", ev, n))
			}
		case FaultDrop:
			if ev.Edge >= m {
				panic(fmt.Sprintf("dist: fault event %v targets edge outside [0,%d)", ev, m))
			}
		}
	}
}

// FaultProfile shapes RandomFaultPlan: how many events of each kind to
// draw, landing uniformly on boundaries [0, Rounds).
type FaultProfile struct {
	Rounds  int // event horizon; <= 0 defaults to 16
	Crashes int
	Drops   int
	Panics  int
}

// RandomFaultPlan draws a plan from seed for a graph with n nodes and m
// edges: the same (seed, n, m, profile) always yields the same plan. Kinds
// are drawn in a fixed order (crashes, then drops, then panics), rounds
// uniform over the horizon, targets uniform over their ranges; kinds with
// no possible target (drops when m = 0) are skipped.
func RandomFaultPlan(seed uint64, n, m int, profile FaultProfile) *FaultPlan {
	horizon := profile.Rounds
	if horizon <= 0 {
		horizon = 16
	}
	r := rng.New(rng.Mix(seed ^ 0xfa017))
	var evs []FaultEvent
	if n > 0 {
		for i := 0; i < profile.Crashes; i++ {
			evs = append(evs, FaultEvent{Round: r.Intn(horizon), Kind: FaultCrash, Node: r.Intn(n)})
		}
	}
	if m > 0 {
		for i := 0; i < profile.Drops; i++ {
			evs = append(evs, FaultEvent{Round: r.Intn(horizon), Kind: FaultDrop, Edge: r.Intn(m)})
		}
	}
	if n > 0 {
		for i := 0; i < profile.Panics; i++ {
			evs = append(evs, FaultEvent{Round: r.Intn(horizon), Kind: FaultPanic, Node: r.Intn(n)})
		}
	}
	return NewFaultPlan(evs)
}

// InjectedPanic is the value a FaultPanic event panics with; consumers
// that recover injected faults can distinguish it from a genuine program
// panic by type.
type InjectedPanic struct {
	Node  int // the event's target node
	Round int // the boundary it fired at
}

func (p *InjectedPanic) Error() string {
	return fmt.Sprintf("dist: injected panic at node %d, round boundary %d", p.Node, p.Round)
}

// applyFaults fires every plan event scheduled at or before the boundary
// preceding sweep e.roundIdx and returns the number of run participants
// it crashed. Runs on the engine goroutine between rounds, so every
// worker observes the same pre-sweep state. An injected panic aborts
// the run like a program panic; a Runner's next reset makes the slab
// reusable either way.
func (e *engine) applyFaults() int {
	killed := 0
	evs := e.faults.events
	for e.faultIdx < len(evs) && evs[e.faultIdx].Round <= e.roundIdx {
		ev := evs[e.faultIdx]
		e.faultIdx++
		switch ev.Kind {
		case FaultCrash:
			if e.killNode(int32(ev.Node)) {
				killed++
			}
		case FaultDrop:
			e.dropEdgeTraffic(int32(ev.Edge))
		case FaultPanic:
			if e.state[ev.Node]&stDone != 0 || !e.nodeInRun(int32(ev.Node)) {
				continue // target not running: the panic has no stack to fire on
			}
			panic(&InjectedPanic{Node: ev.Node, Round: e.roundIdx})
		}
	}
	return killed
}

// nodeInRun reports whether v participates in the current run (is inside
// the active set, or there is none).
func (e *engine) nodeInRun(v int32) bool {
	return e.active == nil || e.active.mask[v]
}

// killNode crashes v: terminates its program, clears its undelivered
// inbox, and marks it so every future send addressed to it is suppressed
// (charged, counted, not delivered). Reports whether a running
// participant was actually removed.
func (e *engine) killNode(v int32) bool {
	nd := &e.nodes[v]
	if e.state[v]&stDone != 0 || !e.nodeInRun(v) || (e.crashed != nil && e.crashed[v]) {
		return false
	}
	if e.crashed == nil {
		if e.crashSlab == nil {
			e.crashSlab = make([]bool, e.n)
		}
		e.crashed = e.crashSlab
	}
	e.crashed[v] = true
	e.crashedList = append(e.crashedList, v)
	e.stats.CrashedNodes++
	// In-flight messages addressed to the node die with it. On a staged
	// engine each sits in its sender's out-slot for the reverse arc —
	// cur[dest[a]] — until the next sweep's gather; on a scatter engine
	// they were delivered straight into the node's own cur range. Either
	// way the node's round r−1 sends are left alone: a crash at boundary
	// r means the node executed rounds < r in full, including delivery of
	// its round r−1 traffic.
	if e.staged {
		for a := nd.base; a < nd.base+nd.deg; a++ {
			if d := e.dest[a]; e.cur[d] != nil {
				e.cur[d] = nil
				e.stats.SuppressedMessages++
			}
		}
	} else {
		for a := nd.base; a < nd.base+nd.deg; a++ {
			if e.cur[a] != nil {
				e.cur[a] = nil
				e.stats.SuppressedMessages++
			}
		}
	}
	// Terminate the program: it is marked done and never stepped again. On
	// a staged engine the dead node stops clearing its out-slots, so it
	// joins its worker's wash schedule.
	e.state[v] |= stDone
	if e.staged {
		nd.wk.washNew = append(nd.wk.washNew, v)
	}
	return true
}

// dropEdgeTraffic clears the in-flight messages on both directions of
// edge, counting each. The two endpoint arc slots it clears hold the
// edge's whole in-flight traffic in either delivery mode: on a staged
// engine u's slot holds u's outbound message, on a scatter engine it
// holds v's inbound one — the union over both endpoints is the same two
// slots either way (dest is an involution).
func (e *engine) dropEdgeTraffic(edge int32) {
	u, v := e.g.Endpoints(int(edge))
	e.dropEdgeArc(int32(u), edge)
	e.dropEdgeArc(int32(v), edge)
}

// dropEdgeArc clears node w's own arc slot for edge in the front buffer.
func (e *engine) dropEdgeArc(w, edge int32) {
	nd := &e.nodes[w]
	for a := nd.base; a < nd.base+nd.deg; a++ {
		if e.eid[a] == edge {
			if e.cur[a] != nil {
				e.cur[a] = nil
				e.stats.SuppressedMessages++
			}
			return
		}
	}
}
