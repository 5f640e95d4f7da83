package dist

import (
	"distmatch/internal/graph"

	"distmatch/internal/rng"
)

// Runner amortizes per-run engine setup across many runs on one graph.
// A fresh RunFlat pays O(n+m) slab setup (mailbox buffers, node and RNG
// slabs, the inbox slab), worker construction and — above one worker —
// dispatch goroutine spawning on every call; with per-round cost down to
// ~tens of nanoseconds per node-round, that setup dominates short runs (seed sweeps, per-slot switch
// schedules, experiment batteries). A Runner builds the engine once and
// resets it per run: mailboxes are cleared in place, RNG streams are
// reseeded, and the worker pool (including its dispatch goroutines)
// stays warm. BenchmarkRunnerFresh/BenchmarkRunnerReuse measure the win.
//
// Results are bit-identical to fresh RunFlat calls with the same Config
// and seed (TestRunnerMatchesRun). A Runner is not safe for
// concurrent use; a run that panics (program panic, MaxRounds, desync)
// re-panics in the caller and leaves the Runner reusable.
type Runner struct {
	e      *engine
	closed bool
}

// NewRunner builds a reusable engine for g under cfg. cfg.Seed is
// ignored; each run supplies its own. Close the Runner when done to
// release its dispatch goroutines.
func NewRunner(g *graph.Graph, cfg Config) *Runner {
	return &Runner{e: newEngine(g, cfg)}
}

// RunFlat executes one RoundProgram per node under the given seed —
// RunFlat's pooled counterpart. The per-node program slab is reused
// across runs; the factory may itself recycle machines (Reset instead of
// allocate), which removes the last per-run allocation.
func (r *Runner) RunFlat(seed uint64, factory func(nd *Node) RoundProgram) *Stats {
	e := r.check()
	if e.n == 0 {
		return &Stats{}
	}
	tel, tstart := telStart()
	var st Stats
	completed := false
	defer func() { tel.record(tstart, &st, completed) }()
	e.reset(seed)
	e.forEachActive(func(nd *Node) { e.progs[nd.id] = factory(nd) })
	e.loop()
	st = e.stats
	completed = true
	return &st
}

// SetFaultPlan installs (or, with nil, removes) a deterministic fault
// schedule for all subsequent runs; see fault.go. Each run replays the
// plan from its first event — the plan describes one run, not a
// lifetime — so a plan stays installed until replaced. A faulted run
// leaves the Runner reusable: after clearing the plan, the next run is
// bit-identical to a fresh engine (TestFaultRunnerReusable).
func (r *Runner) SetFaultPlan(p *FaultPlan) {
	eng := r.check()
	if p != nil {
		p.validateFor(eng.n, eng.g.M())
	}
	eng.faults = p
}

// SetMaxRounds replaces the Config.MaxRounds abort bound for subsequent
// runs (0 removes it). Fault consumers install one as a safety net:
// message loss can starve a convergence oracle, and an unbounded faulted
// run would otherwise spin forever.
func (r *Runner) SetMaxRounds(n int) {
	r.check().cfg.MaxRounds = n
}

// Close releases the Runner's dispatch goroutines and recycles its slab
// bundle through the process-wide pool (see slabs.go), so a
// spawn-use-close Runner cycle — a shard supervisor cold-rebuilding a
// crashed shard, say — costs pool traffic, not fresh O(n+m) allocation.
// Further runs panic.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.e.close()
	r.e.dispatch = nil
}

func (r *Runner) check() *engine {
	if r.closed {
		panic("dist: Run on a closed Runner")
	}
	return r.e
}

// reset rewinds the engine to its pre-run state for a new seed, keeping
// every slab and the worker pool, in O(previous active + active volume)
// rather than O(n + m): mailboxes may hold undelivered messages from a
// previous run's final segments or an abort, but only in slots that
// run's active nodes could have written (clearPrevMail), and only this
// run's active nodes need their flags rewound and streams reseeded — the
// sweep never visits anyone else.
func (e *engine) reset(seed uint64) {
	e.cfg.Seed = seed
	e.clearPrevMail()
	if e.active == nil {
		e.prevAll = true
	} else {
		e.prevDirty = append(e.prevDirty[:0], e.active.list...)
	}
	e.planSweep()
	e.forEachActive(func(nd *Node) {
		e.state[nd.id] = 0
		e.rnds[nd.id].Seed(rng.ForkSeed(seed, uint64(nd.id)))
	})
	for i := range e.workers {
		w := &e.workers[i]
		w.panicID, w.panicVal = -1, nil
		// The previous run's pending washes address slots clearPrevMail
		// already scrubbed (wash targets are always that run's steppers).
		w.washOld, w.washNew = w.washOld[:0], w.washNew[:0]
	}
	// Fault state: the plan replays from its first event each run; crash
	// marks are cleared in O(crashes) via the list, and the mask reverts
	// to nil so fault-free runs keep the fast send path.
	e.faultIdx, e.roundIdx = 0, 0
	if e.crashed != nil {
		for _, v := range e.crashedList {
			e.crashed[v] = false
		}
		e.crashedList = e.crashedList[:0]
		e.crashed = nil
	}
	e.orGlobal, e.maxGlobal = false, 0
	// A fresh Stats each run: the previous run's copy was returned to the
	// caller, so its roundMaxBits backing array must not be reused.
	e.stats = Stats{}
}
