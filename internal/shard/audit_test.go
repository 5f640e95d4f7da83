package shard

import (
	"fmt"
	"slices"
	"testing"

	"distmatch/internal/dynamic"
	"distmatch/internal/gen"
	"distmatch/internal/rng"
)

// auditChecker asserts the per-slot audit contract: the report's
// crossing count is the published matching's, the change set is
// deduplicated and bounded by n, an audit leaves it empty and complete
// exactly when the audit certified, and between audits it holds every
// node whose composed entry or incident liveness changed since the last
// certified one.
type auditChecker struct {
	gmatch []int32 // composed matching after the last certified audit
	live   []bool  // liveness after it
}

func (c *auditChecker) check(t *testing.T, p *Pool, rep Report, label string) {
	t.Helper()
	m := p.Query().Matching
	crossing := 0
	for _, e := range m.Edges(p.g) {
		if p.edgeShard[e] < 0 {
			crossing++
		}
	}
	if rep.CrossingMatched != crossing {
		t.Fatalf("%s: report counts %d crossing matches, the published matching holds %d", label, rep.CrossingMatched, crossing)
	}
	if len(p.changes) > p.g.N() {
		t.Fatalf("%s: change set holds %d nodes, more than n = %d", label, len(p.changes), p.g.N())
	}
	for _, v := range p.changes {
		if !p.changeMark[v] {
			t.Fatalf("%s: change set lists unmarked node %d", label, v)
		}
	}
	if rep.Audited {
		if len(p.changes) != 0 || p.changesComplete != rep.CertificateOK {
			t.Fatalf("%s: after the audit the change set holds %d nodes, complete %v, certified %v",
				label, len(p.changes), p.changesComplete, rep.CertificateOK)
		}
		c.gmatch = append(c.gmatch[:0], p.gmatch...)
		c.live = append(c.live[:0], p.live...)
		return
	}
	if !p.changesComplete || c.gmatch == nil {
		return
	}
	for v, e := range p.gmatch {
		if e != c.gmatch[v] && !p.changeMark[v] {
			t.Fatalf("%s: node %d was re-mated since the last certificate but is not in the change set", label, v)
		}
	}
	for e, live := range p.live {
		if x, y := p.g.Endpoints(e); live != c.live[e] && !(p.changeMark[x] && p.changeMark[y]) {
			t.Fatalf("%s: edge %d changed liveness but its endpoints are not both in the change set", label, e)
		}
	}
}

// TestPoolAuditFallback covers the fallback path: the change set is
// wiped mid-slot, so the regional repair cannot see the short augmenting
// paths the churn since the last audit created; the probe after it
// fails, and the warm full repair certifies. The push-back of that
// certified repair keeps every shard Healthy.
func TestPoolAuditFallback(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(41), 256, 256, 4.0/256)
	p := New(g, Options{Shards: 4, K: 3, Seed: 42, AuditEvery: 8})
	defer p.Close()
	mir := newChurnMirror(g.M())
	r := rng.New(43)
	for len(mir.sets[0]) < g.M()/32 {
		p.Apply(mir.churn(r, 32, 0))
	}
	var ac auditChecker
	fallbacks := 0
	for slot := 0; slot < 160 && fallbacks == 0; slot++ {
		before := p.Totals()
		due := p.auditIn == 1
		if due {
			p.SetCommitTestHook(func() { p.clearChanges(true) })
		}
		rep := p.Apply(mir.churn(r, 2, 2))
		p.SetCommitTestHook(nil)
		label := fmt.Sprintf("slot %d", slot)
		checkPool(t, p, label)
		ac.check(t, p, rep, label)
		if rep.Audited != due {
			t.Fatalf("%s: audited %v, want %v", label, rep.Audited, due)
		}
		after := p.Totals()
		if after.AuditFailures == before.AuditFailures {
			continue
		}
		fallbacks++
		if !rep.CertificateOK || after.Repairs != before.Repairs+1 || after.Audits != before.Audits+2 {
			t.Fatalf("%s: fallback certified %v, repairs +%d, probes +%d; want certified, +1, +2",
				label, rep.CertificateOK, after.Repairs-before.Repairs, after.Audits-before.Audits)
		}
		for s, h := range rep.Healths {
			if h != dynamic.Healthy {
				t.Fatalf("%s: shard %d is %v after a certified push-back", label, s, h)
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no audit with a wiped change set fell back")
	}
}

// TestPoolAdoptBackVerdict: a push-back the final probe certified keeps
// the shard's health; an uncertified one sends it to Recovering until
// its own forced audit re-certifies it.
func TestPoolAdoptBackVerdict(t *testing.T) {
	g := testSlab(7, 16, 16, 0.3)
	p := New(g, Options{Shards: 4, K: 2, Seed: 7})
	defer p.Close()
	// unmatchOne frees one internal matched edge of shard s in the
	// composed matching — still valid, now differing from the shard's.
	unmatchOne := func(s int) {
		for _, gv := range p.shards[s].nodes {
			if ge := p.gmatch[gv]; ge >= 0 && p.edgeShard[ge] == int32(s) {
				x, y := g.Endpoints(int(ge))
				p.gmatch[x], p.gmatch[y] = -1, -1
				return
			}
		}
		t.Fatalf("shard %d holds no internal match", s)
	}
	for _, c := range []struct {
		certified bool
		want      dynamic.Health
	}{{true, dynamic.Healthy}, {false, dynamic.Recovering}} {
		if h := p.shards[1].health; h != dynamic.Healthy {
			t.Fatalf("shard 1 starts %v", h)
		}
		adopts := p.Totals().Adopts
		unmatchOne(1)
		p.adoptBack(c.certified, p.step)
		if h := p.shards[1].mt.Health(); h != c.want || p.shards[1].health != c.want {
			t.Fatalf("push-back certified=%v: shard 1 is %v (observed %v), want %v", c.certified, h, p.shards[1].health, c.want)
		}
		if got := p.Totals().Adopts - adopts; got != 1 {
			t.Fatalf("push-back certified=%v adopted %d shards, want only shard 1", c.certified, got)
		}
		rep := p.Apply(nil)
		checkPool(t, p, fmt.Sprintf("after push-back certified=%v", c.certified))
		if rep.Healths[1] != dynamic.Healthy {
			t.Fatalf("shard 1 is %v one slot after the push-back", rep.Healths[1])
		}
	}
}

// TestPoolRecertifiesAfterKillStretch: a shard killed mid-churn stays
// down while the churn continues (audits suppressed, the change set
// still recording), and the forced re-certification once every shard
// serves again passes on the regional path — no full repair.
func TestPoolRecertifiesAfterKillStretch(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(51), 256, 256, 4.0/256)
	p := New(g, Options{Shards: 4, K: 3, Seed: 52, AuditEvery: 8, RestartBackoff: 6, MaxBackoff: 6})
	defer p.Close()
	mir := newChurnMirror(g.M())
	r := rng.New(53)
	for len(mir.sets[0]) < g.M()/32 {
		p.Apply(mir.churn(r, 32, 0))
	}
	for slot := 0; slot < 40; slot++ {
		p.Apply(mir.churn(r, 2, 2))
	}
	// With no certified base after New, the first audit runs the warm
	// full repair before its probe; every later one repairs regionally.
	base := p.Totals()
	if !p.changesComplete || base.Repairs != 1 || base.AuditFailures != 0 {
		t.Fatalf("warm-up: change set complete %v, %d full repairs, %d failed audits; want true, 1, 0",
			p.changesComplete, base.Repairs, base.AuditFailures)
	}
	if err := p.KillShard(2); err != nil {
		t.Fatal(err)
	}
	var ac auditChecker
	recertified := false
	for slot := 0; slot < 12 && !recertified; slot++ {
		rep := p.Apply(mir.churn(r, 2, 2))
		label := fmt.Sprintf("slot %d", slot)
		checkPool(t, p, label)
		ac.check(t, p, rep, label)
		if rep.Degraded && rep.Audited {
			t.Fatalf("%s: audited while degraded", label)
		}
		recertified = rep.Audited && rep.CertificateOK
	}
	if !recertified {
		t.Fatal("the pool did not re-certify after the restart")
	}
	if tot := p.Totals(); tot.AuditFailures != base.AuditFailures || tot.Repairs != base.Repairs {
		t.Fatalf("re-certification fell back: audit failures %d → %d, full repairs %d → %d",
			base.AuditFailures, tot.AuditFailures, base.Repairs, tot.Repairs)
	}
}

// TestPoolForcedAuditSyncsPins: an Audit call between slots repairs
// regionally like a periodic one, so it must leave the pins, the
// reported crossing count and the change set as consistent as the
// barrier does.
func TestPoolForcedAuditSyncsPins(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(61), 256, 256, 4.0/256)
	p := New(g, Options{Shards: 4, K: 3, Seed: 62, AuditEvery: -1})
	defer p.Close()
	mir := newChurnMirror(g.M())
	r := rng.New(63)
	for len(mir.sets[0]) < g.M()/32 {
		p.Apply(mir.churn(r, 32, 0))
	}
	var ac auditChecker
	remated := false
	for slot := 0; slot < 60; slot++ {
		rep := p.Apply(mir.churn(r, 2, 2))
		label := fmt.Sprintf("slot %d", slot)
		ac.check(t, p, rep, label)
		if slot%4 != 3 {
			continue
		}
		before := append([]int32(nil), p.gmatch...)
		rep = p.Audit()
		label += " audit"
		if !rep.Audited || !rep.CertificateOK {
			t.Fatalf("%s: forced audit %+v", label, rep)
		}
		checkPool(t, p, label)
		assertPins(t, p, label)
		ac.check(t, p, rep, label)
		remated = remated || !slices.Equal(before, p.gmatch)
	}
	if !remated {
		t.Fatal("no forced audit re-mated a node; the pin check is vacuous")
	}
}
