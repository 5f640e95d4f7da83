package dist

import (
	"fmt"
	"slices"
)

// Active-set execution: a run may be restricted to a subset of the nodes,
// and everything the engine does per round — the worker sweeps, mailbox
// collection, program construction, RNG reseeding, the Runner's
// between-run mailbox hygiene — then costs O(active), not O(n).
// This is what makes regional repair on a large slab cost ∝ region
// (internal/dynamic drives it from the dirty-region ball; see DESIGN.md
// §1 and §6): the paper's locality guarantee says only a (2k−1)-hop ball
// must do work after a small update, and the active set is the engine
// mechanism that stops everyone else from being stepped.
//
// Contract. An inactive node is not part of the run at all: none of its
// program segments execute, it sends and receives nothing, and its RNG
// stream does not advance (TestActiveInactiveNodesUntouched). A run over
// an active set is therefore bit-identical — matching, rounds, messages,
// bits, per-round profile — to a full-sweep run of a protocol whose
// excluded nodes are silent observers (non-participants that step idly,
// submit the oracle identity, and never send or draw randomness — the
// exact shape of core's participate=false phases). Only the work
// accounting differs, honestly: Stats.NodeRounds and Stats.OracleCalls
// count active nodes only.
//
// Representation. The set is a dense bitmap (O(1) membership, shared
// with the protocol layer as a region mask) plus a compact id list in
// insertion order (O(active) iteration and clearing). Each run picks the
// sweep form by density: below n/activeDenseCutover the workers walk a
// sorted copy of the list, above it they walk their chunk range testing
// the bitmap — a predictable byte-load per node beats pointer-chasing a
// list once a quarter of the graph is active.

// activeDenseCutover selects the sweep form: a run with
// count*activeDenseCutover >= n scans chunk ranges under the bitmap,
// sparser runs walk the sorted id list.
const activeDenseCutover = 4

// Sweep forms, chosen per run by planSweep.
const (
	sweepAll  uint8 = iota // no active set: every node, the PR-2 loops
	sweepList              // sparse: workers walk activeSorted slices
	sweepMask              // dense: workers walk [lo,hi) under the bitmap
)

// activeSet is the engine's mutable node subset: mask and list always
// describe the same membership.
type activeSet struct {
	mask []bool
	list []int32
}

// add inserts v, reporting whether it was new.
func (a *activeSet) add(v int32) bool {
	if a.mask[v] {
		return false
	}
	a.mask[v] = true
	a.list = append(a.list, v)
	return true
}

// reset empties the set in O(len(list)).
func (a *activeSet) reset() {
	for _, v := range a.list {
		a.mask[v] = false
	}
	a.list = a.list[:0]
}

// ensureActive installs (or returns) the engine's active set, reusing
// the slab across ClearActive cycles.
func (e *engine) ensureActive() *activeSet {
	if e.active != nil {
		return e.active
	}
	if e.actSlab == nil {
		e.actSlab = &activeSet{mask: make([]bool, e.n)}
	}
	e.active = e.actSlab
	return e.active
}

// installActive replaces the active set with the listed nodes — the
// shared implementation of Config.ActiveSet and Runner.SetActive.
// Duplicates are ignored; ids must lie in [0, n).
func (e *engine) installActive(nodes []int32) {
	a := e.ensureActive()
	a.reset()
	for _, v := range nodes {
		if v < 0 || int(v) >= e.n {
			panic(fmt.Sprintf("dist: active node %d out of range [0,%d)", v, e.n))
		}
		a.add(v)
	}
}

// activeCount returns the number of nodes the next run will step.
func (e *engine) activeCount() int {
	if e.active == nil {
		return e.n
	}
	return len(e.active.list)
}

// planSweep fixes the run's sweep form, reporter and per-worker bounds
// from the current active set. Called once per run (newEngine, reset),
// after any active-set mutations and before forEachActive.
func (e *engine) planSweep() {
	a := e.active
	if a == nil {
		e.sweep, e.reporter = sweepAll, 0
		return
	}
	count := len(a.list)
	if count > 0 && count*activeDenseCutover >= e.n {
		e.sweep = sweepMask
		rep := a.list[0]
		for _, v := range a.list {
			if v < rep {
				rep = v
			}
		}
		e.reporter = rep
		return
	}
	e.sweep = sweepList
	e.activeSorted = append(e.activeSorted[:0], a.list...)
	slices.Sort(e.activeSorted)
	e.reporter = -1
	if count > 0 {
		e.reporter = e.activeSorted[0]
	}
	idx := 0
	for i := range e.workers {
		w := &e.workers[i]
		w.actLo = idx
		for idx < count && e.activeSorted[idx] < w.hi {
			idx++
		}
		w.actHi = idx
	}
}

// forEachActive visits every node of the current run in increasing id
// order — the cold-path twin of the worker sweeps (reset, RunFlat
// factories).
func (e *engine) forEachActive(f func(nd *Node)) {
	switch e.sweep {
	case sweepList:
		for _, v := range e.activeSorted {
			f(&e.nodes[v])
		}
	case sweepMask:
		mask := e.active.mask
		for i := range e.nodes {
			if mask[i] {
				f(&e.nodes[i])
			}
		}
	default:
		for i := range e.nodes {
			f(&e.nodes[i])
		}
	}
}

// clearPrevMail clears exactly the per-node state the previous run could
// have dirtied: the stepped nodes' own arc ranges in both buffers
// (undelivered final or aborted traffic), on a scatter engine also the
// dest slots their sends scattered into (a staged run writes no mailbox
// slots outside its steppers' own rows), and their program-slab entries
// (so a node dropped from the active set doesn't pin its old run's
// machine — and whatever that machine references — for the Runner's
// lifetime). A full-sweep predecessor dirties everything, so the slabs
// are cleared whole. This is what keeps a Runner's per-run reset
// O(active volume) instead of O(n + m).
func (e *engine) clearPrevMail() {
	if e.prevAll {
		clear(e.cur)
		clear(e.nxt)
		clear(e.progs)
		e.prevAll = false
		return
	}
	for _, v := range e.prevDirty {
		nd := &e.nodes[v]
		lo, hi := nd.base, nd.base+nd.deg
		clear(e.cur[lo:hi])
		clear(e.nxt[lo:hi])
		if !e.staged {
			for _, d := range e.dest[lo:hi] {
				e.cur[d] = nil
				e.nxt[d] = nil
			}
		}
		e.progs[v] = nil
	}
}

// Reporter reports whether this node is the run's designated reporter:
// the lowest-id node the run steps (node 0 on a full sweep). Protocols
// that record a global result from one node should test Reporter rather
// than ID() == 0, so the result is still written under active-set
// execution, where node 0 may not run (internal/check does).
func (nd *Node) Reporter() bool { return nd.id == nd.eng.reporter }

// SetActive restricts all subsequent runs to the listed nodes: inactive
// nodes execute no program segments, send and receive nothing, and their
// RNG streams do not advance. Duplicates are ignored; ids must lie in
// [0, n). An empty list makes runs step no nodes at all. The previous
// active set (if any) is replaced in O(old + new).
func (r *Runner) SetActive(nodes []int32) {
	r.check().installActive(nodes)
}

// ClearActive removes the restriction: every node is active again (the
// default). O(previous active).
func (r *Runner) ClearActive() {
	eng := r.check()
	if eng.active != nil {
		eng.active.reset()
		eng.active = nil
	}
}

// ActivateNode adds one node to the active set, reporting whether it was
// newly added. Without an installed active set every node is already
// active and this is a no-op.
func (r *Runner) ActivateNode(v int) bool {
	eng := r.check()
	if v < 0 || v >= eng.n {
		panic(fmt.Sprintf("dist: ActivateNode(%d) out of range [0,%d)", v, eng.n))
	}
	if eng.active == nil {
		return false
	}
	return eng.active.add(int32(v))
}

// ExpandByHops grows the active set by h hops of live edges (the edge
// activation mask of mutable.go; every edge when none is installed): the
// frontier-growth primitive regional consumers use to turn dirty seeds
// into the ≤(2k−1)-hop repair ball. Cost is O(volume of the result set)
// — expansion walks each member's arcs once. Returns the new active
// count (n when every node is active).
func (r *Runner) ExpandByHops(h int) int {
	eng := r.check()
	a := eng.active
	if a == nil {
		return eng.n
	}
	start := 0
	for hop := 0; hop < h && start < len(a.list); hop++ {
		end := len(a.list)
		for li := start; li < end; li++ {
			nd := &eng.nodes[a.list[li]]
			lo, hi := nd.base, nd.base+nd.deg
			for arc := lo; arc < hi; arc++ {
				if lv := eng.liveEdge; lv != nil && !lv[eng.eid[arc]] {
					continue
				}
				a.add(eng.nbr[arc])
			}
		}
		start = end
	}
	return len(a.list)
}

// ActiveCount returns the number of nodes the next run will step (n when
// no active set is installed).
func (r *Runner) ActiveCount() int { return r.check().activeCount() }

// ActiveNodes returns the active node ids in insertion order, or nil
// when every node is active. The slice is a view into the Runner's
// state: read-only, valid until the next active-set mutation.
func (r *Runner) ActiveNodes() []int32 {
	eng := r.check()
	if eng.active == nil {
		return nil
	}
	return eng.active.list
}

// ActiveMask returns the dense membership bitmap, or nil when every node
// is active. Like ActiveNodes it is a read-only view; regional
// protocols hand it to their participate/region closures so the engine
// schedule and the protocol mask cannot drift apart.
func (r *Runner) ActiveMask() []bool {
	eng := r.check()
	if eng.active == nil {
		return nil
	}
	return eng.active.mask
}

// NodeActive reports whether node v will be stepped by the next run.
func (r *Runner) NodeActive(v int) bool {
	eng := r.check()
	if v < 0 || v >= eng.n {
		panic(fmt.Sprintf("dist: NodeActive(%d) out of range [0,%d)", v, eng.n))
	}
	return eng.active == nil || eng.active.mask[v]
}
