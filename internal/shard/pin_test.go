package shard

import (
	"fmt"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/dynamic"
	"distmatch/internal/gen"
	"distmatch/internal/rng"
)

// churnMirror is a liveness record that draws balanced churn: each batch
// deletes distinct live edges and inserts distinct dead ones, so the
// live-edge count stays put over a long stream.
type churnMirror struct {
	live []bool
	pos  []int    // index of each edge in sets[its liveness]
	sets [2][]int // [0] dead edges, [1] live edges
}

func newChurnMirror(m int) *churnMirror {
	c := &churnMirror{live: make([]bool, m), pos: make([]int, m)}
	for e := range c.live {
		c.live[e], c.pos[e] = true, e
		c.sets[1] = append(c.sets[1], e)
	}
	return c
}

func (c *churnMirror) set(e int, live bool) {
	from, to := &c.sets[b2i(c.live[e])], &c.sets[b2i(live)]
	last := (*from)[len(*from)-1]
	(*from)[c.pos[e]] = last
	c.pos[last] = c.pos[e]
	*from = (*from)[:len(*from)-1]
	c.pos[e] = len(*to)
	*to = append(*to, e)
	c.live[e] = live
}

func (c *churnMirror) churn(r *rng.Rand, dels, ins int) dynamic.Batch {
	var b dynamic.Batch
	for _, want := range []struct {
		n  int
		op dynamic.Op
	}{{dels, dynamic.Delete}, {ins, dynamic.Insert}} {
		set := c.sets[b2i(want.op == dynamic.Delete)]
		for k := 0; k < want.n; {
			e := set[r.Intn(len(set))]
			dup := false
			for _, u := range b {
				dup = dup || u.Edge == e
			}
			if !dup {
				b = append(b, dynamic.Update{Edge: e, Op: want.op})
				k++
			}
		}
	}
	for _, u := range b {
		c.set(u.Edge, u.Op == dynamic.Insert)
	}
	return b
}

// crossingMatched reports whether the composed matching covers global
// node v with a crossing edge — the nodes the pool pins.
func crossingMatched(p *Pool, v int32) bool {
	ge := p.gmatch[v]
	return ge >= 0 && p.edgeShard[ge] < 0
}

// assertPins checks every up shard's pins against the composed matching
// between slots: a pinned node is crossing-matched, a crossing-matched
// node is pinned unless its shard holds a refused pin awaiting resync,
// and no shard serving its own matching covers a pinned node.
func assertPins(t *testing.T, p *Pool, label string) {
	t.Helper()
	for _, slot := range p.shards {
		if !slot.up {
			continue
		}
		own := slot.health != dynamic.Degraded
		m := slot.mt.Matching()
		for lv, gv := range slot.nodes {
			pinned, crossing := slot.mt.Pinned(lv), crossingMatched(p, gv)
			switch {
			case pinned && !crossing:
				t.Fatalf("%s: shard %d pins node %d, which is not crossing-matched", label, slot.id, gv)
			case crossing && !pinned && !slot.pinStale:
				t.Fatalf("%s: shard %d leaves crossing-matched node %d unpinned", label, slot.id, gv)
			case pinned && own && m.MatchedEdge(lv) >= 0:
				t.Fatalf("%s: shard %d matches pinned node %d", label, slot.id, gv)
			}
		}
	}
}

// TestPoolTugOfWarGone replays churn-pool's stream at a quarter of its
// size: a 1024+1024 slab, 4 shards, K=3, pool audits every 8 slots; a
// 1/32 deletion wave, then 400 balanced 2-delete + 2-insert slots. With
// crossing-matched nodes pinned out of their shards' views, no shard
// audit ever finds an augmenting path through a node the pool matched
// across, so no shard recomputes beyond its initial solve. On the pool
// side, each audit's regional repair leaves at most a couple of its 50
// probes failing (without it, 48 failed, with 48 full repairs and 96
// adopts), and its certified push-backs keep every shard Healthy.
func TestPoolTugOfWarGone(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(41), 1024, 1024, 4.0/1024)
	p := New(g, Options{Shards: 4, K: 3, Seed: 42, AuditEvery: 8})
	defer p.Close()
	mir := newChurnMirror(g.M())
	r := rng.New(43)
	for len(mir.sets[0]) < g.M()/32 {
		p.Apply(mir.churn(r, 32, 0))
	}
	base := p.Totals()
	var ac auditChecker
	for slot := 0; slot < 400; slot++ {
		rep := p.Apply(mir.churn(r, 2, 2))
		label := fmt.Sprintf("slot %d", slot)
		checkPool(t, p, label)
		assertPins(t, p, label)
		ac.check(t, p, rep, label)
		for s, h := range rep.Healths {
			if h != dynamic.Healthy {
				t.Fatalf("%s: shard %d is %v", label, s, h)
			}
		}
	}
	tot := p.Totals()
	if audits, failures := tot.Audits-base.Audits, tot.AuditFailures-base.AuditFailures; audits < 50 || failures > 2 {
		t.Fatalf("pool audits: %d probes, %d failed; want ≥ 50 probes and at most 2 failures", audits, failures)
	}
	var audits, failures, recomputes int
	for _, st := range p.Status() {
		audits += st.Audits
		failures += st.AuditFailures
		recomputes += st.Recomputes
	}
	if audits == 0 || failures != 0 || recomputes != p.Shards() {
		t.Fatalf("shard audits %d, failures %d, recomputes %d: want failures 0 and only the %d initial recomputes",
			audits, failures, recomputes, p.Shards())
	}
}

// TestPoolPinsTrackCrossingMatches checks the pin invariant and the
// audit contract after every slot of a schedule with kills, restarts and
// shard faults.
func TestPoolPinsTrackCrossingMatches(t *testing.T) {
	g := testSlab(23, 16, 16, 0.3)
	p := New(g, Options{Shards: 4, K: 2, Seed: 23, AuditEvery: 4})
	defer p.Close()
	p.SetKillPlan(NewKillPlan([]KillEvent{
		{Step: 5, Shard: 0, Kind: Kill},
		{Step: 11, Shard: 2, Kind: Restart},
		{Step: 17, Shard: 3, Kind: Kill},
	}))
	r := rng.New(29)
	var ac auditChecker
	for step := 0; step < 60; step++ {
		switch step {
		case 8:
			sub := p.SubGraph(1)
			_ = p.InjectShardFaults(1, dist.RandomFaultPlan(7, sub.N(), sub.M(), dist.FaultProfile{
				Rounds: 6, Crashes: 1, Drops: 2, Panics: 1,
			}))
		case 24:
			_ = p.InjectShardFaults(1, nil)
		}
		rep := p.Apply(randomPoolBatch(r, g.M(), 5))
		label := fmt.Sprintf("step %d", step)
		checkPool(t, p, label)
		assertPins(t, p, label)
		ac.check(t, p, rep, label)
	}
}

// TestPoolRestartReinstallsPins: a rebuilt shard — forced by
// RestartShard or auto-restarted after a kill — holds exactly its
// crossing-matched set as pins when its first commit runs.
func TestPoolRestartReinstallsPins(t *testing.T) {
	g := testSlab(37, 16, 16, 0.3)
	p := New(g, Options{Shards: 4, K: 2, Seed: 37, AuditEvery: 4})
	defer p.Close()
	r := rng.New(38)
	for step := 0; step < 10; step++ {
		p.Apply(randomPoolBatch(r, g.M(), 5))
	}
	checked := 0
	check := func(s int) func() {
		return func() {
			slot := p.shards[s]
			if !slot.up {
				return
			}
			checked++
			pins := 0
			for lv, gv := range slot.nodes {
				if slot.mt.Pinned(lv) != crossingMatched(p, gv) {
					t.Errorf("shard %d node %d: pinned %v at first commit, crossing-matched %v",
						s, gv, slot.mt.Pinned(lv), crossingMatched(p, gv))
				}
				if slot.mt.Pinned(lv) {
					pins++
				}
			}
			if pins == 0 {
				t.Errorf("shard %d: no crossing-matched node to pin; the check is vacuous", s)
			}
		}
	}

	// RestartShard rebuilds at once; the next Apply (empty, so routing
	// moves no composed entry) is the shard's first commit.
	if err := p.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	p.SetCommitTestHook(check(1))
	p.Apply(nil)
	p.SetCommitTestHook(nil)

	// A killed shard auto-restarts in supervise, before its first commit
	// in the same slot.
	if err := p.KillShard(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4 && !p.shards[2].up; i++ {
		p.SetCommitTestHook(check(2))
		p.Apply(nil)
		p.SetCommitTestHook(nil)
	}
	if checked != 2 {
		t.Fatalf("checked %d first commits, want 2", checked)
	}
	assertPins(t, p, "after restarts")
}

// TestPoolPinRefusalResyncs drives the one case where the pool asks to
// pin a node its shard's own matching covers: a crash fault keeps a
// shard Degraded — serving its last-good snapshot — while its ladder's
// consistent partial output covers nodes the snapshot leaves free, and
// crossing inserts let the pool match one of them across. The pin is
// refused without a panic, the composed matching stays valid, and once
// the fault is disarmed and the shard leaves Degraded its pins resync —
// with another shard held down, so no pool audit repair (which resyncs
// every shard) can do it instead.
func TestPoolPinRefusalResyncs(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		if pinRefusalSchedule(t, seed) {
			return
		}
	}
	t.Fatal("no schedule produced a refused pin")
}

// pinRefusalSchedule runs one seeded schedule and reports whether it hit
// a refused pin (checking the recovery when it did).
func pinRefusalSchedule(t *testing.T, seed uint64) bool {
	g := testSlab(seed, 16, 16, 0.25)
	p := New(g, Options{Shards: 4, K: 2, Seed: seed, AuditEvery: 4, RestartBackoff: 16, MaxBackoff: 16})
	defer p.Close()
	const s = 1
	slot, sub := p.shards[s], p.SubGraph(s)
	c := int(seed) % sub.N()
	if sub.Deg(c) == 0 {
		return false
	}
	// A crash of node c mid-repair: its partner writes the new match
	// back, c does not, and every ladder level fails the consistency
	// check while the consistent rest of the output stays in place.
	crash := dist.NewFaultPlan([]dist.FaultEvent{{Round: 1 + int(seed/7%12), Kind: dist.FaultCrash, Node: c}})
	if err := p.InjectShardFaults(s, crash); err != nil {
		t.Fatal(err)
	}
	var cross []int
	for _, ce := range p.crossing {
		if x, y := g.Endpoints(int(ce)); p.owner[x] == s || p.owner[y] == s {
			cross = append(cross, int(ce))
		}
	}
	r := rng.New(seed + 100)
	refused := false
	for step := 0; step < 40 && !refused; step++ {
		// Dirty c every slot, so each ladder attempt reaches the crash.
		b := dynamic.Batch{{Edge: int(slot.edges[sub.EdgeAt(c, r.Intn(sub.Deg(c)))]), Op: dynamic.Op(r.Intn(2))}}
		for i := 0; i < 2; i++ {
			b = append(b, dynamic.Update{Edge: cross[r.Intn(len(cross))], Op: dynamic.Insert})
		}
		b = append(b, dynamic.Update{Edge: r.Intn(g.M()), Op: dynamic.Delete})
		p.Apply(b)
		label := fmt.Sprintf("seed %d step %d", seed, step)
		checkPool(t, p, label)
		assertPins(t, p, label)
		refused = slot.pinStale
	}
	if !refused {
		return false
	}
	if slot.health != dynamic.Degraded {
		t.Fatalf("seed %d: pin refused while shard %d is %v", seed, s, slot.health)
	}
	if err := p.InjectShardFaults(s, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.KillShard(s + 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8 && slot.health == dynamic.Degraded; i++ {
		if rep := p.Apply(nil); rep.Audited {
			t.Fatalf("seed %d: pool audited with shard %d down", seed, s+1)
		}
		checkPool(t, p, fmt.Sprintf("seed %d heal %d", seed, i))
	}
	if slot.health == dynamic.Degraded || slot.pinStale {
		t.Fatalf("seed %d: shard %d still %v (stale pins %v) after disarming", seed, s, slot.health, slot.pinStale)
	}
	assertPins(t, p, fmt.Sprintf("seed %d healed", seed))
	return true
}
