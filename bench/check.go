package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"distmatch/internal/dynamic"
	"distmatch/internal/exact"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// mirror is the benchmark's own record of which slab edges are live. It
// draws balanced churn from it, so the live-edge count stays constant and
// a run does not drift, and checks every matching against it.
type mirror struct {
	g    *graph.Graph
	live []bool
	pos  []int    // index of each edge in lists[its liveness]
	sets [2][]int // [0] dead edges, [1] live edges
}

func newMirror(g *graph.Graph) *mirror {
	m := &mirror{g: g, live: make([]bool, g.M()), pos: make([]int, g.M())}
	for e := range m.live {
		m.live[e] = true
		m.pos[e] = e
		m.sets[1] = append(m.sets[1], e)
	}
	return m
}

func (m *mirror) dead() int { return len(m.sets[0]) }

func (m *mirror) set(e int, live bool) {
	from, to := &m.sets[b2i(m.live[e])], &m.sets[b2i(live)]
	if from == to {
		return
	}
	last := (*from)[len(*from)-1]
	(*from)[m.pos[e]] = last
	m.pos[last] = m.pos[e]
	*from = (*from)[:len(*from)-1]
	m.pos[e] = len(*to)
	*to = append(*to, e)
	m.live[e] = live
}

// churn draws a batch of dels deletes of distinct live edges and ins
// inserts of distinct dead edges, and applies it to the mirror. Callers
// deliver every batch they draw (retrying until it is acknowledged).
func (m *mirror) churn(r *rng.Rand, dels, ins int) dynamic.Batch {
	b := make(dynamic.Batch, 0, dels+ins)
	pick := func(set []int, n int, op dynamic.Op) {
		for k := 0; k < n; {
			e := set[r.Intn(len(set))]
			if !inBatch(b, e) {
				b = append(b, dynamic.Update{Edge: e, Op: op})
				k++
			}
		}
	}
	pick(m.sets[1], dels, dynamic.Delete)
	pick(m.sets[0], ins, dynamic.Insert)
	for _, u := range b {
		m.set(u.Edge, u.Op == dynamic.Insert)
	}
	return b
}

func inBatch(b dynamic.Batch, e int) bool {
	for _, u := range b {
		if u.Edge == e {
			return true
		}
	}
	return false
}

// checkLive returns why mt is not a valid matching of the mirror's live
// subgraph, or nil.
func (m *mirror) checkLive(mt *graph.Matching) error {
	if err := mt.Verify(m.g); err != nil {
		return err
	}
	for v := 0; v < m.g.N(); v++ {
		if e := mt.MatchedEdge(v); e >= 0 && !m.live[e] {
			return fmt.Errorf("matched edge %d is not live", e)
		}
	}
	return nil
}

// opt is the maximum matching size of the live subgraph, from
// Hopcroft–Karp. Callers keep it out of every timed interval.
func (m *mirror) opt() int {
	b := graph.NewBuilder(m.g.N())
	for v := 0; v < m.g.N(); v++ {
		b.SetSide(v, int8(m.g.Side(v)))
	}
	for _, e := range m.sets[1] {
		u, v := m.g.Endpoints(e)
		b.AddEdge(u, v)
	}
	return exact.HopcroftKarp(b.MustBuild()).Size()
}

// approxOK reports whether size meets the certified (1−1/k)·opt bound.
func approxOK(size, opt, k int) bool { return k*size >= (k-1)*opt }

// checkTriples returns why a matching received as [edge, u, v] triples is
// not a valid matching on slab edges of g, or nil.
func checkTriples(g *graph.Graph, size int, edges [][3]int) error {
	if len(edges) != size {
		return fmt.Errorf("size %d but %d edges", size, len(edges))
	}
	used := make([]bool, g.N())
	for _, t := range edges {
		e, u, v := t[0], t[1], t[2]
		if e < 0 || e >= g.M() {
			return fmt.Errorf("edge %d outside the slab", e)
		}
		if x, y := g.Endpoints(e); x != u || y != v {
			return fmt.Errorf("edge %d is (%d,%d), not (%d,%d)", e, x, y, u, v)
		}
		if used[u] || used[v] {
			return fmt.Errorf("edge %d shares an endpoint with another matched edge", e)
		}
		used[u], used[v] = true, true
	}
	return nil
}

// vmHWM returns the peak resident set size, in MB, of process pid, from
// /proc. It measures the server of the serve workloads.
func vmHWM(pid int) (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", pid)
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM %q: %w", path, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM", path)
}

// liveHeapMB is this process's live heap after collection, in MB. Taken
// after each set-up, its median is what an in-process workload's program
// and inputs retain. Peak RSS would instead measure when the collector
// happened to run. The heap at the end of a run holds engine buffers
// sized by the largest round so far, and which buffers a new engine
// takes from the engine's slab pool depends on scheduling: both varied by
// a third between runs. The second collection empties the sync.Pool
// victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
