package graph

// Classical graph utilities used across the repository: BFS distances,
// connected components, and diameter. The diameter matters to this project
// specifically because the simulator's global aggregation primitives
// (dist's SubmitOr/SubmitMax oracle rounds) cost Θ(diameter) rounds in a
// real network — experiment notes convert Stats.OracleCalls into real
// rounds with it.

// BFSFrom returns hop distances from src (-1 where unreachable).
func (g *Graph) BFSFrom(src int) []int {
	distTo := make([]int, g.n)
	for i := range distTo {
		distTo[i] = -1
	}
	distTo[src] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for p := g.off[v]; p < g.off[v+1]; p++ {
			u := g.nbr[p]
			if distTo[u] == -1 {
				distTo[u] = distTo[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return distTo
}

// Components returns a component id per node and the component count.
func (g *Graph) Components() ([]int, int) {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	var queue []int32
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], int32(s))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for p := g.off[v]; p < g.off[v+1]; p++ {
				u := g.nbr[p]
				if comp[u] == -1 {
					comp[u] = count
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return comp, count
}

// Connected reports whether the graph has exactly one component (and at
// least one node).
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return false
	}
	_, c := g.Components()
	return c == 1
}

// Diameter returns the exact diameter of the largest component via BFS from
// every node — O(n·m); intended for the experiment workloads. Returns 0 for
// empty or edgeless graphs.
func (g *Graph) Diameter() int {
	d := 0
	for v := 0; v < g.n; v++ {
		for _, x := range g.BFSFrom(v) {
			if x > d {
				d = x
			}
		}
	}
	return d
}

// DiameterLowerBound returns a cheap lower bound via a double BFS sweep
// from src — exact on trees, a 1/2-approximation in general. O(m).
func (g *Graph) DiameterLowerBound(src int) int {
	if g.n == 0 {
		return 0
	}
	far := func(from int) (int, int) {
		best, bestD := from, 0
		for v, x := range g.BFSFrom(from) {
			if x > bestD {
				best, bestD = v, x
			}
		}
		return best, bestD
	}
	a, _ := far(src)
	_, d := far(a)
	return d
}

// Eccentricity returns the maximum finite distance from v.
func (g *Graph) Eccentricity(v int) int {
	e := 0
	for _, x := range g.BFSFrom(v) {
		if x > e {
			e = x
		}
	}
	return e
}

// DegreeHistogram returns counts[d] = number of nodes of degree d.
func (g *Graph) DegreeHistogram() []int {
	h := make([]int, g.maxDeg+1)
	for v := 0; v < g.n; v++ {
		h[g.Deg(v)]++
	}
	return h
}
