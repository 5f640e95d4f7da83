package shard

import (
	"distmatch/internal/check"
	"distmatch/internal/dist"
	"distmatch/internal/graph"
	"distmatch/internal/telemetry"
)

// markCross queues one crossing edge for the next resolution pass
// (deduplicated).
func (p *Pool) markCross(e int32) {
	if p.crossMark[e] {
		return
	}
	p.crossMark[e] = true
	p.crossDirty = append(p.crossDirty, e)
}

// markNodeCross queues every crossing edge incident to v — called when
// v's composed entry changes, since that is the only way v can block or
// unblock a crossing match — and v itself for the pin pass.
func (p *Pool) markNodeCross(v int) {
	for _, e := range p.nodeCross[v] {
		p.markCross(e)
	}
	p.markPin(v)
}

// markAllCross queues the entire crossing set — the reset after a
// conflict repair rewrites the composed matching wholesale.
func (p *Pool) markAllCross() {
	for _, ce := range p.crossing {
		p.markCross(ce)
	}
}

// recountCrossing recomputes the fully-claimed crossing-edge count by
// scan — used only after a conflict repair, where the incremental
// counter's provenance is gone.
func (p *Pool) recountCrossing() {
	n := 0
	for _, ce := range p.crossing {
		x, _ := p.g.Endpoints(int(ce))
		if p.gmatch[x] == ce {
			n++
		}
	}
	p.crossMatched = n
}

// recompose rebuilds the composed matching from what each up shard is
// currently serving, then resolves the crossing edges. Shard matchings
// are authoritative on their internal edges — a Degraded shard
// contributes the last-good snapshot it serves, a down shard's nodes
// stay frozen at their previous entries — and crossing matches are
// pool-owned: one survives only while its edge is live and both
// endpoints remain free, and a deterministic greedy pass (ascending
// edge id) matches whatever free-free live crossing edges remain. The
// greedy pass is exactly the length-1 half of the Berge hierarchy, so
// after a certified conflict repair it is provably a no-op; between
// audits it is the cheap always-on resolution that keeps the composed
// answer valid and never silently empty.
//
// Both halves are incremental: only shards whose served matching may
// have changed (ApplyReport.Changed, a rebuild, an adopt push-back) are
// rescanned, and the greedy pass walks the dirty crossing set instead of
// every crossing edge — amortizing resolution across slots while staying
// bit-identical to per-slot full scans (the pool_schedule golden table
// was recorded while both ran side by side). rep == nil is the initial
// full compose in New.
func (p *Pool) recompose(rep *Report) {
	full := rep == nil
	for _, slot := range p.shards {
		if !slot.up || (!full && !slot.dirty) {
			continue
		}
		slot.dirty = false
		m := slot.mt.Matching() // what the shard serves: own or last-good
		for lv, gv := range slot.nodes {
			old := p.gmatch[gv]
			nw := old
			if old >= 0 && p.edgeShard[old] == int32(slot.id) {
				nw = -1
			}
			if le := m.MatchedEdge(lv); le >= 0 {
				nw = slot.edges[le]
			}
			if nw == old {
				continue
			}
			if old >= 0 && p.edgeShard[old] < 0 {
				// The shard claimed gv internally, abandoning a crossing
				// match half-claimed: account the fully→half transition
				// here (once — the other owner may rescan too) and let the
				// dirty pass dissolve the remaining half.
				if oz := p.g.Other(int(old), int(gv)); p.gmatch[oz] == old {
					p.crossMatched--
				}
			}
			p.gmatch[gv] = nw
			p.markNodeCross(int(gv))
		}
	}
	if full {
		p.recomposeCrossingFull(rep)
	} else {
		p.resolveCrossing(rep)
	}
}

// recomposeCrossingFull is the initial compose's crossing resolution: one
// ascending scan over every crossing edge.
func (p *Pool) recomposeCrossingFull(rep *Report) {
	crossingMatched, newMatches := 0, 0
	for _, ce := range p.crossing {
		x, y := p.g.Endpoints(int(ce))
		claimed := p.gmatch[x] == ce || p.gmatch[y] == ce
		if claimed && (!p.live[ce] || p.gmatch[x] != ce || p.gmatch[y] != ce) {
			// The edge died or a shard matched an endpoint internally:
			// the crossing match dissolves (shard matchings win).
			if p.gmatch[x] == ce {
				p.gmatch[x] = -1
			}
			if p.gmatch[y] == ce {
				p.gmatch[y] = -1
			}
			claimed = false
		}
		if !claimed && p.live[ce] && p.gmatch[x] < 0 && p.gmatch[y] < 0 {
			p.gmatch[x], p.gmatch[y] = ce, ce
			p.totals.CrossingMatched++
			newMatches++
		}
		if p.gmatch[x] == ce {
			crossingMatched++
		}
	}
	p.crossMatched = crossingMatched
	p.emitCrossing(rep, newMatches)
}

// resolveCrossing is the per-slot crossing resolution: it
// processes only the dirty set, in ascending edge id off a min-heap, and
// reproduces the full scan's per-slot semantics exactly. The invariant
// that makes skipping sound: a crossing edge the full scan would act on
// has had a liveness change or an endpoint state change since it was
// last processed, and every such change marks it. A node freed mid-pass
// (a dissolve) re-queues its crossing edges — later-id ones into this
// slot's heap (the ascending scan has not reached them yet), earlier-id
// ones into the next slot's set, which is exactly the slot the per-slot
// full scan would first see them free.
func (p *Pool) resolveCrossing(rep *Report) {
	h := p.crossHeap[:0]
	for _, e := range p.crossDirty {
		h = heapPush(h, e) // marks stay set while queued
	}
	p.crossDirty = p.crossDirty[:0]
	newMatches, scanned := 0, 0
	for len(h) > 0 {
		var e int32
		h, e = heapPop(h)
		scanned++
		p.crossMark[e] = false
		x, y := p.g.Endpoints(int(e))
		claimed := p.gmatch[x] == e || p.gmatch[y] == e
		if claimed && (!p.live[e] || p.gmatch[x] != e || p.gmatch[y] != e) {
			if p.gmatch[x] == e && p.gmatch[y] == e {
				p.crossMatched--
			}
			if p.gmatch[x] == e {
				p.gmatch[x] = -1
				h = p.pushFreed(h, x, e)
			}
			if p.gmatch[y] == e {
				p.gmatch[y] = -1
				h = p.pushFreed(h, y, e)
			}
			claimed = false
		}
		if !claimed && p.live[e] && p.gmatch[x] < 0 && p.gmatch[y] < 0 {
			p.gmatch[x], p.gmatch[y] = e, e
			p.markPin(x)
			p.markPin(y)
			p.crossMatched++
			p.totals.CrossingMatched++
			newMatches++
		}
	}
	p.crossHeap = h[:0]
	if p.tel != nil {
		p.tel.crossingScanned.Add(int64(scanned))
		p.tel.crossingCarried.Add(int64(len(p.crossDirty)))
	}
	p.emitCrossing(rep, newMatches)
}

// pushFreed re-queues the crossing edges of node v, freed while the
// pass stood at edge cur: ids past cur join this slot's heap, ids
// before it carry to the next slot (see resolveCrossing). v itself joins
// the pin pass.
func (p *Pool) pushFreed(h []int32, v int, cur int32) []int32 {
	p.markPin(v)
	for _, f := range p.nodeCross[v] {
		if f == cur || p.crossMark[f] {
			continue
		}
		if f > cur {
			p.crossMark[f] = true
			h = heapPush(h, f)
		} else {
			p.markCross(f)
		}
	}
	return h
}

func (p *Pool) emitCrossing(rep *Report, newMatches int) {
	if p.tel != nil && newMatches > 0 {
		p.tel.crossingMatched.Add(int64(newMatches))
		if rep != nil {
			p.emit(rep.Step, telemetry.EventCrossing, -1, int64(newMatches), 0)
		}
	}
}

// heapPush and heapPop are a minimal int32 min-heap on a slice — the
// dirty-crossing worklist is usually a handful of edges, so interface
// dispatch via container/heap is not worth it.
func heapPush(h []int32, e int32) []int32 {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func heapPop(h []int32) ([]int32, int32) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return h, top
}

// maybeAudit runs the pool conflict audit when the periodic countdown
// expires — and forces one on the first all-serving Apply after a
// degraded stretch (a shard down or Degraded), so disruptions re-certify
// as soon as every shard serves again. It does NOT force an audit merely
// because the pool is uncertified: routing clears certified on every
// liveness change, so that policy — the PR-8 write path's audit-every-
// churn-slot bug — made the full-graph Berge probe run on essentially
// every Apply and was the dominant cost of the slot (~70% in profiles).
// Between cadence points the pool serves valid-but-uncertified answers,
// which is the documented contract ("certified at audited points").
// Audits are suppressed while the pool is degraded: repairing against a
// shard's last-good snapshot would only be reverted by the next
// recompose, and the certified (1−1/K) claim is an all-shards-serving
// claim anyway.
func (p *Pool) maybeAudit(rep *Report) {
	due := false
	if p.opts.AuditEvery > 0 {
		p.auditIn--
		if p.auditIn <= 0 {
			due = true
			p.auditIn = p.opts.AuditEvery
		}
	}
	if p.degradedLocked() {
		p.wasDegraded = true
		return
	}
	if p.wasDegraded && !p.certified {
		due = true
	}
	p.wasDegraded = false
	if due {
		p.runAudit(rep)
	}
}

// Audit forces a conflict audit now (the report carries the outcome).
// Like the periodic audit it requires an undegraded pool — no shard
// down or Degraded; otherwise it reports unaudited. Panics ErrClosed on
// a closed pool.
func (p *Pool) Audit() Report {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	if p.closed.Load() {
		panic(ErrClosed)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var rep Report
	rep.Step = p.step
	if !p.degradedLocked() {
		p.runAudit(&rep)
		p.wasDegraded = false
		p.syncPins()
		p.publishLocked()
	}
	rep.CrossingMatched = p.crossMatched
	rep.Healths, rep.Down = p.healthsLocked()
	rep.Degraded = p.degradedLocked()
	p.updateGauges()
	return rep
}

// The audit change set. Lemma: if the composed matching had no
// augmenting path of length ≤ 2K−1 at the last certified audit, any such
// path now contains a node touched by a liveness change or re-mated
// since — otherwise every edge and every mate on it is as it was, and
// the path was augmenting then. Both halves of the path from that node
// are alternating walks, so the path lies in the change set's
// alternating (2K−1)-reach, and a repair over that region removes every
// such path it can see. The set grows by O(1) per update and per
// re-mated node: route notes touched endpoints, and collectChanges adds
// the nodes the pin pass is about to sync — every site that changes a
// composed entry marks its node for that pass.

// noteChange adds node v to the audit change set (deduplicated).
func (p *Pool) noteChange(v int) {
	if p.changeMark[v] {
		return
	}
	p.changeMark[v] = true
	p.changes = append(p.changes, int32(v))
}

// collectChanges adds this slot's re-mated nodes — the pin pass's marks —
// to the change set. It runs in the barrier before the audit, so the
// audit's own repair, which its certificate covers, is not recorded.
func (p *Pool) collectChanges() {
	for _, slot := range p.shards {
		for _, v := range slot.pinDirty {
			p.noteChange(int(v))
		}
	}
}

// clearChanges empties the change set and records whether the audit
// that cleared it ended certified — whether the set is complete again.
func (p *Pool) clearChanges(certified bool) {
	for _, v := range p.changes {
		p.changeMark[v] = false
	}
	p.changes = p.changes[:0]
	p.changesComplete = certified
}

// runAudit certifies the composed matching — the pool's stop-the-world
// epoch: it runs inside the barrier with the mirror lock held, the one
// phase concurrent commits genuinely wait behind. Short augmenting paths
// that cross shard boundaries are invisible to per-shard maintenance;
// they are the pool's to remove, and its repairs are the pool's entire
// cross-shard communication cost (the k-party phase-two budget).
//
// With a complete change set the audit first repairs the composed
// matching over the set's alternating region (repairRegion), then runs
// the full-graph Berge probe once. Only a failed probe — or a missing
// certified base, after New or an uncertified audit — takes the
// fallback: one warm full repair, a probe, and a push-back of every
// changed shard restriction. AuditFailures counts audits whose first
// probe failed: the probe after the regional repair, or the fallback's
// probe when there was no certified base.
func (p *Pool) runAudit(rep *Report) {
	probe := 2*p.opts.K - 1
	rep.Audited = true
	p.totals.Audits++
	if p.tel != nil {
		p.tel.epochs.Add(1)
	}
	// The pool audit event carries runAudit's whole resolver cost —
	// repairs plus probes, i.e. the slot's entire cross-shard
	// communication bill. Engine costs are deterministic, so the record
	// replays bit-identically.
	preRounds, preMsgs := p.totals.Rounds, p.totals.Messages
	emitVerdict := func(ok bool) {
		kind := telemetry.EventAuditFail
		if ok {
			kind = telemetry.EventAuditPass
		}
		p.emit(rep.Step, kind, -1, p.totals.Rounds-preRounds, p.totals.Messages-preMsgs)
	}
	regional := p.changesComplete
	if regional {
		p.repairRegion(rep.Step)
		if p.certify(probe) {
			rep.CertificateOK = true
			emitVerdict(true)
			p.adoptBack(true, rep.Step)
			p.clearChanges(true)
			return
		}
		p.totals.AuditFailures++
		p.totals.Audits++ // the fallback probes again
	}
	p.totals.Repairs++
	p.resolver.ClearActive()
	p.addCost(p.repairer.Repair(p.nextSeed(), nil))
	// The repair rewrote the composed matching wholesale: restore the
	// crossing counter by scan and re-examine the whole crossing set on
	// the next slot — exactly what a per-slot full scan would.
	p.recountCrossing()
	p.markAllCross()
	ok := p.certify(probe)
	if !regional && !ok {
		p.totals.AuditFailures++
	}
	rep.CertificateOK = ok
	emitVerdict(ok && !regional) // the first probe's verdict
	p.adoptBack(ok, rep.Step)
	// The repair may have moved any crossing match: resync every shard's
	// pins — O(n), like the repair itself.
	for _, slot := range p.shards {
		if slot.up {
			p.resyncPins(slot)
		}
	}
	p.clearChanges(ok)
}

// repairRegion runs the pool's repairer over the alternating
// (2K−1)-reach of the change set, closed under mates, with the resolver
// stepping only that region. Every composed entry the repair changes is
// folded back incrementally: the crossing counter, the dirty crossing
// edges and the pin pass (markNodeCross). O(region volume).
func (p *Pool) repairRegion(step int) {
	r := p.resolver
	r.SetActive(p.changes)
	r.ExpandAlternating(2*p.opts.K-1, p.gmatch)
	// Mate closure: one pass over the pre-closure members suffices (a
	// mate's mate is the node itself). ActivateNode appends to the set,
	// so the view is re-read at every step.
	for i, n := 0, r.ActiveCount(); i < n; i++ {
		v := r.ActiveNodes()[i]
		if me := p.gmatch[v]; me >= 0 {
			r.ActivateNode(p.g.Other(int(me), int(v)))
		}
	}
	region := r.ActiveNodes()
	p.regionOld = p.regionOld[:0]
	for _, v := range region {
		p.regionOld = append(p.regionOld, p.gmatch[v])
	}
	if len(region) > 0 {
		p.addCost(p.repairer.Repair(p.nextSeed(), r.ActiveMask()))
	}
	remated := 0
	for i, v := range region {
		old, nw := p.regionOld[i], p.gmatch[v]
		if old == nw {
			continue
		}
		remated++
		// Both endpoints of a dissolved or new crossing match are in the
		// region and both change: count each edge at its first endpoint.
		if old >= 0 && p.edgeShard[old] < 0 && p.firstEnd(old, v) {
			p.crossMatched--
		}
		if nw >= 0 && p.edgeShard[nw] < 0 && p.firstEnd(nw, v) {
			p.crossMatched++
		}
		p.markNodeCross(int(v))
	}
	if p.tel != nil {
		p.tel.auditRegion.Observe(int64(len(region)))
	}
	p.emit(step, telemetry.EventRepairRegion, -1, int64(len(region)), int64(remated))
	r.ClearActive()
}

// firstEnd reports whether v is edge e's first endpoint.
func (p *Pool) firstEnd(e, v int32) bool {
	x, _ := p.g.Endpoints(int(e))
	return x == int(v)
}

// certify runs the full-graph Berge probe on the composed matching
// through the resolver runner and records the verdict as the pool's
// certified state.
func (p *Pool) certify(probeLen int) bool {
	p.resolver.ClearActive()
	r, st := check.MatchingOnRunner(p.resolver, p.gmatch, probeLen, p.nextSeed())
	p.addCost(st)
	if !r.Valid {
		panic("shard: pool audit found an inconsistent composed matching (pool invariant broken)")
	}
	p.certified = r.ShortestAug == -1
	return p.certified
}

// restrictionOf returns the slot's internal restriction of the composed
// matching in local matched-edge form.
func (p *Pool) restrictionOf(slot *shardSlot) []int32 {
	matched := make([]int32, slot.sub.N())
	for lv, gv := range slot.nodes {
		matched[lv] = -1
		if ge := p.gmatch[gv]; ge >= 0 && p.edgeShard[ge] == int32(slot.id) {
			matched[lv] = p.localEdge[ge]
		}
	}
	return matched
}

// adoptBack pushes the repaired restriction into every up shard whose
// served matching it no longer equals. Before the audit the two agree —
// recompose takes shard matchings as authoritative on internal edges,
// and audits run only while no shard serves a stale snapshot — so these
// are exactly the shards the audit's repairs changed. A restriction of a
// valid composed matching is always a consistent local matching on the
// shard's live sub-slab, so Adopt cannot fail. certified is the final
// probe's verdict: a restriction of a certified composed matching is
// certified on the shard's view (its live subgraph minus its pins), so
// the shard keeps its health; an uncertified push-back sends it to
// Recovering until its own forced audit. Adopted shards are marked for
// rescan — their served matching just changed under the pool.
func (p *Pool) adoptBack(certified bool, step int) {
	for s, slot := range p.shards {
		if !slot.up {
			continue
		}
		after := p.restrictionOf(slot)
		if servesRestriction(slot.mt.Matching(), after) {
			continue
		}
		if err := slot.mt.Adopt(after, certified); err != nil {
			panic("shard: push-back of a repaired restriction failed: " + err.Error())
		}
		slot.dirty = true
		if h := slot.mt.Health(); h != slot.health {
			p.emit(step, telemetry.EventHealth, int32(s), int64(slot.health), int64(h))
			slot.health = h
		}
		p.totals.Adopts++
		p.emit(step, telemetry.EventAdopt, int32(s), 0, 0)
	}
}

// servesRestriction reports whether the shard matching m assigns every
// local node the edge in matched.
func servesRestriction(m *graph.Matching, matched []int32) bool {
	for lv, le := range matched {
		if m.MatchedEdge(lv) != int(le) {
			return false
		}
	}
	return true
}

func (p *Pool) addCost(st *dist.Stats) {
	p.totals.Rounds += int64(st.Rounds)
	p.totals.Messages += st.Messages
	p.totals.NodeRounds += st.NodeRounds
	if p.tel != nil {
		p.tel.resolverRounds.Add(int64(st.Rounds))
		p.tel.resolverMsgs.Add(st.Messages)
	}
}
