package dist

import (
	"sync"

	"distmatch/internal/rng"
)

// Engine slab recycling: the O(n+m) allocation bundle of a run — mailbox
// buffers, the inbox slab, node geometry, per-node lifecycle/RNG/program
// slabs — is taken from a process-wide pool at engine construction and
// returned, zeroed, when the run closes. A fresh Run/RunFlat per seed is
// the common calling pattern (seed sweeps, experiment batteries, the
// benchmark suite), and without recycling each call retires ~megabytes of
// short-lived slabs; the resulting allocation rate keeps the garbage
// collector marking almost continuously, which in turn keeps the write
// barrier armed on the two hottest stores in the engine — Send's mailbox
// slot write and collect's inbox pack. Recycling drops the steady-state
// allocation rate to the caller's own machines, the barriers stay off,
// and the mailbox slabs themselves stay cache-resident across
// back-to-back runs instead of migrating to fresh cold pages.
//
// Invariant: every slab inside a pooled bundle is zero across its full
// capacity. putSlabs enforces it by clearing before Put, which also
// releases the run's Message/RoundProgram references promptly; takeSlabs
// can therefore hand out re-sliced capacity with no get-side clearing
// (newEngine rewrites the node/RNG entries it uses, exactly as it would
// on fresh make allocations).
//
// Runner engines keep their bundle for the Runner's lifetime — reuse is
// the Runner's whole job — so only close() recycles, and a bundle has
// exactly one owner at all times (sync.Pool handles cross-goroutine
// handoff).
type engineSlabs struct {
	cur, nxt []Message
	inSlab   []Incoming
	nodes    []Node
	rnds     []rng.Rand
	state    []uint8
	inCnt    []int32
	progs    []RoundProgram
}

var slabPool = sync.Pool{New: func() any { return &engineSlabs{} }}

// sized returns buf resliced to n when its capacity suffices, else a
// fresh zeroed slab. Pooled buffers are zero across their capacity, so
// both arms hand back all-zero storage.
func sized[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// takeSlabs claims a bundle and sizes the engine's slabs from it.
func (e *engine) takeSlabs(n, arcs int) {
	sl := slabPool.Get().(*engineSlabs)
	e.cur = sized(sl.cur, arcs)
	e.nxt = sized(sl.nxt, arcs)
	e.inSlab = sized(sl.inSlab, arcs)
	e.nodes = sized(sl.nodes, n)
	e.rnds = sized(sl.rnds, n)
	e.state = sized(sl.state, n)
	e.inCnt = sized(sl.inCnt, n)
	e.progs = sized(sl.progs, n)
	e.slabs = sl
}

// putSlabs zeroes the bundle across its full capacity and returns it to
// the pool. Full-capacity clearing (not just this run's length) is what
// maintains the pool invariant when a large-graph bundle is later reused
// for a smaller graph.
func (e *engine) putSlabs() {
	sl := e.slabs
	if sl == nil {
		return
	}
	e.slabs = nil
	sl.cur = e.cur[:cap(e.cur)]
	sl.nxt = e.nxt[:cap(e.nxt)]
	sl.inSlab = e.inSlab[:cap(e.inSlab)]
	sl.nodes = e.nodes[:cap(e.nodes)]
	sl.rnds = e.rnds[:cap(e.rnds)]
	sl.state = e.state[:cap(e.state)]
	sl.inCnt = e.inCnt[:cap(e.inCnt)]
	sl.progs = e.progs[:cap(e.progs)]
	clear(sl.cur)
	clear(sl.rnds)
	clear(sl.nxt)
	clear(sl.inSlab)
	clear(sl.nodes)
	clear(sl.state)
	clear(sl.inCnt)
	clear(sl.progs)
	e.cur, e.nxt, e.inSlab = nil, nil, nil
	e.nodes, e.state, e.inCnt = nil, nil, nil
	e.rnds = nil
	e.progs = nil
	slabPool.Put(sl)
}
