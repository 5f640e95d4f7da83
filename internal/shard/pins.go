package shard

import "distmatch/internal/dynamic"

// Pins (DESIGN.md §8). A node the composed matching covers with a
// crossing edge is matched outside its shard, so the pool pins it in the
// shard's Maintainer (dynamic.Maintainer.SetPinned): its live edges leave
// the shard's engine view, and the shard's repairs and audits can no
// longer see it as free and match it internally — which would dissolve
// the pool's crossing match and hand the pool back an augmenting path.
//
// Pins change only in the serialized barrier, after recompose, crossing
// resolution and any audit repair with its push-back, in shard order.
// The per-slot pass is incremental: a node's pin can change only when
// its composed entry changes, and every site that changes one (route's
// delete scrub, recompose's rescan, resolveCrossing's dissolves and new
// matches) marks the node. Whole-shard resyncs happen only where the
// slot already costs O(n): an audit repair, a rebuild, and a shard
// leaving Degraded after a refused pin.

// markPin queues node v for the barrier's pin pass (deduplicated).
func (p *Pool) markPin(v int) {
	if p.pinMark[v] {
		return
	}
	p.pinMark[v] = true
	slot := p.shards[p.owner[v]]
	slot.pinDirty = append(slot.pinDirty, int32(v))
}

// syncPins is the barrier's pin pass: every up shard pins or releases
// its marked nodes, and a shard with a refused pin resyncs once it is
// no longer Degraded. A down shard's marks are dropped — its rebuild
// resyncs from the composed matching.
func (p *Pool) syncPins() {
	for _, slot := range p.shards {
		for _, v := range slot.pinDirty {
			p.pinMark[v] = false
			if slot.up {
				p.pinNode(slot, v)
			}
		}
		slot.pinDirty = slot.pinDirty[:0]
		if slot.up && slot.pinStale && slot.health != dynamic.Degraded {
			p.resyncPins(slot)
		}
	}
}

// resyncPins re-derives every pin of an up shard from the composed
// matching and drains its pending marks. O(shard nodes).
func (p *Pool) resyncPins(slot *shardSlot) {
	for _, v := range slot.pinDirty {
		p.pinMark[v] = false
	}
	slot.pinDirty = slot.pinDirty[:0]
	slot.pinStale = false
	for _, v := range slot.nodes {
		p.pinNode(slot, v)
	}
}

// pinNode pins global node v in its shard iff the composed matching
// covers it with a crossing edge. A refusal — the shard's own matching
// covers v while the pool matched it across, possible only while the
// shard is Degraded and serves its last-good snapshot — leaves v
// unpinned and marks the shard for a resync.
func (p *Pool) pinNode(slot *shardSlot, v int32) {
	ge := p.gmatch[v]
	want := ge >= 0 && p.edgeShard[ge] < 0
	if !slot.mt.SetPinned(int(p.localNode[v]), want) {
		slot.pinStale = true
	}
}
