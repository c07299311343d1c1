package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/transpose"
)

// ParallelParams configures SolveParallel. The embedded Params keep their
// meaning with three restrictions, each rejected with an error: the
// selection rule is fixed (every worker runs a LIFO dive over its own
// stack), the domination rule is unsupported (a shared table would
// serialize the workers), and the MAXSZAS/MAXSZDB resource bounds are
// unsupported (their drop-the-worst semantics are inherently global).
type ParallelParams struct {
	Params

	// Workers is the number of search goroutines; 0 means GOMAXPROCS.
	Workers int
}

// SolveParallel is the multi-core counterpart of Solve: a work-pool
// parallel branch-and-bound with a shared atomic incumbent.
//
// Architecture: the root is expanded breadth-first until the frontier holds
// a few vertices per worker (or the search finishes outright). The frontier
// seeds a mutex-guarded global pool; each worker then runs the sequential
// LIFO dive on a private stack with a private scheduling state, pruning
// against the shared incumbent cost (an atomic int64, so the hot path never
// takes a lock). Workers donate the bottom half of their stack to the pool
// whenever it runs dry and park on a condition variable when no work
// exists; the search terminates when all workers are parked.
//
// The returned cost is exactly the sequential optimum (for BFn, BR=0);
// Stats are aggregated across workers and are NOT run-to-run deterministic
// (vertex counts vary with interleaving, the cost never does).
func SolveParallel(g *taskgraph.Graph, plat platform.Platform, pp ParallelParams) (Result, error) {
	return SolveParallelContext(context.Background(), g, plat, pp)
}

// SolveParallelContext is SolveParallel under a caller context.
//
// Anytime contract: a timeout or cancellation stops every worker and
// returns the best incumbent recorded so far with the matching typed
// Reason (TermTimeLimit/TermCanceled) and a nil error. A panic in any
// worker is recovered, the remaining workers are drained, and the call
// returns the salvaged incumbent (Reason == TermPanic) together with a
// *PanicError — one poisoned instance must not kill a fleet.
func SolveParallelContext(ctx context.Context, g *taskgraph.Graph, plat platform.Platform, pp ParallelParams) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := pp.Params
	inc, err := prepare(g, plat, p)
	if err != nil {
		return Result{}, err
	}
	if p.Dominance {
		return Result{}, fmt.Errorf("core: dominance rule is not supported by the parallel solver")
	}
	if p.Resources.MaxActiveSet != 0 || p.Resources.MaxChildren != 0 {
		return Result{}, fmt.Errorf("core: MAXSZAS/MAXSZDB are not supported by the parallel solver")
	}
	if p.Prefix != nil || p.Link != nil {
		return Result{}, fmt.Errorf("core: the parallel solver does not support Prefix or Link")
	}
	if p.UseGlobalBound {
		return Result{}, fmt.Errorf("core: the parallel solver does not support global-bound termination")
	}
	if p.Selection != SelectLIFO {
		return Result{}, fmt.Errorf("core: parallel workers are LIFO by construction; got S=%v", p.Selection)
	}
	workers := pp.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// With dedup, one table is shared by every worker: the striped locks
	// keep probe and store contention per-bucket, and a duplicate pruned
	// by any worker cites a state some worker has already committed to
	// exploring fully.
	ps := &parSolver{g: g, plat: plat, p: p, ctx: ctx, workers: workers, seed: inc.seed, tt: dedupTable(p)}
	ps.incCost.Store(int64(inc.cost))

	start := time.Now() //bbvet:ignore nondet (wall-clock only feeds Stats.Elapsed and the deadline)
	if p.Resources.TimeLimit > 0 {
		ps.deadline = start.Add(p.Resources.TimeLimit)
	}
	err = ps.run()
	var stats Stats
	for _, w := range ps.ws {
		stats.add(w.stats)
	}
	stats.TimedOut = ps.timedOut.Load()
	fillTableStats(&stats, ps.tt)
	stats.Elapsed = time.Since(start) //bbvet:ignore nondet (reporting only)

	reason := TermExhausted
	switch {
	case err != nil:
		reason = TermPanic
	case ps.canceled.Load():
		reason = TermCanceled
	case stats.TimedOut:
		reason = TermTimeLimit
	}
	// Every adopted goal was recorded under incMu, and finish replays it
	// on a fresh state, so after a failure the best solution found before
	// it survives.
	res, rerr := finish(g, plat, p, incumbent{cost: taskgraph.Time(ps.incCost.Load()), seq: ps.incSeq, seed: ps.seed}, reason, stats)
	if err != nil {
		if rerr != nil {
			return Result{}, err
		}
		return res, err
	}
	return res, rerr
}

type parSolver struct {
	g       *taskgraph.Graph
	plat    platform.Platform
	p       Params
	ctx     context.Context
	workers int

	incCost atomic.Int64
	incMu   sync.Mutex
	incSeq  []sched.Placement
	seed    *sched.Schedule

	tt *transpose.Table // shared duplicate-detection table; nil when off

	// ws holds every worker, the seeding one first. Each counts into its
	// expander's Stats; the result sums them once all have stopped.
	ws []*parWorker

	pool     []*vertex
	poolMu   sync.Mutex
	poolCond *sync.Cond
	idle     int
	done     bool

	deadline time.Time
	timedOut atomic.Bool
	canceled atomic.Bool
}

// add accumulates the counters a parallel worker's expander maintains.
func (s *Stats) add(o Stats) {
	s.Generated += o.Generated
	s.Expanded += o.Expanded
	s.Goals += o.Goals
	s.PrunedChildren += o.PrunedChildren
	s.DedupPruned += o.DedupPruned
	s.IncumbentUpdates += o.IncumbentUpdates
}

func (ps *parSolver) pruneLimit() taskgraph.Time {
	return pruneLimitFor(taskgraph.Time(ps.incCost.Load()), ps.p.BR)
}

// incumbentCost is the shared cost at emission time: the parallel event
// stream has unique Seqs but no global order.
func (ps *parSolver) incumbentCost() taskgraph.Time { return taskgraph.Time(ps.incCost.Load()) }

// adopt installs the goal held by a worker's state st as the new incumbent
// if it still improves on the shared cost, reporting whether it won the
// adoption race.
func (ps *parSolver) adopt(st *sched.State, cost taskgraph.Time) bool {
	for {
		cur := ps.incCost.Load()
		if int64(cost) >= cur {
			return false
		}
		if ps.incCost.CompareAndSwap(cur, int64(cost)) {
			break
		}
	}
	ps.incMu.Lock()
	// Another goal may have won the race with an even better cost since our
	// CAS; only record the sequence if we still match the best cost.
	if int64(cost) == ps.incCost.Load() {
		ps.incSeq = st.AppendPlacements(ps.incSeq[:0])
	}
	ps.incMu.Unlock()
	return true
}

func (ps *parSolver) run() (err error) {
	ps.poolCond = sync.NewCond(&ps.poolMu)

	// The seeding pass runs on the caller's goroutine; recover its panics
	// into the same *PanicError contract as the workers'.
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	for i := 0; i <= ps.workers; i++ {
		ps.ws = append(ps.ws, newParWorker(ps, i))
	}

	// Seed the pool by expanding breadth-first from the root with the
	// seeding worker ws[0] until the frontier is wide enough.
	seedTarget := ps.workers * 8
	frontier := []*vertex{prefixChain(nil)}
	for len(frontier) > 0 && len(frontier) < seedTarget {
		if ps.ctx.Err() != nil {
			ps.canceled.Store(true)
			return nil
		}
		v := frontier[0]
		frontier = append(frontier[1:], ps.ws[0].dive(v)...)
	}
	if len(frontier) == 0 {
		// The seeding pass already exhausted the search.
		return nil
	}
	ps.pool = frontier

	var wg sync.WaitGroup
	errs := make([]error, ps.workers)
	for i, w := range ps.ws[1:] {
		wg.Add(1)
		go func(idx int, w *parWorker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[idx] = &PanicError{Value: r, Stack: debug.Stack()}
					// Wake the fleet so the failure propagates instead
					// of deadlocking parked peers. The panic cannot have
					// happened while poolMu was held: nothing under the
					// lock panics, so taking it here is safe.
					ps.shutdown()
				}
			}()
			w.loop()
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parWorker is one search goroutine: an expander with a private
// scheduling state and arena, plus its LIFO stack. Donated vertices stay
// valid across worker boundaries because no arena is released before the
// whole search terminates (see vertexArena's lifetime rules).
type parWorker struct {
	*expander
	ps    *parSolver
	stack []*vertex
	iter  int
}

// newParWorker builds worker machinery with a private seq namespace: the
// worker index occupies the high bits, so vertex identities (and therefore
// observer event Seqs) stay unique across concurrently emitting workers
// without an atomic counter on the hot path. Each worker would need to
// generate 2^48 vertices to collide.
func newParWorker(ps *parSolver, idx int) *parWorker {
	w := &parWorker{ps: ps, expander: newExpander(ps.g, ps.plat, ps.p, ps.tt, ps)}
	w.seq = uint64(idx) << 48
	return w
}

// shutdown signals every worker to stop and wakes the parked ones.
func (ps *parSolver) shutdown() {
	ps.poolMu.Lock()
	ps.done = true
	ps.poolCond.Broadcast()
	ps.poolMu.Unlock()
}

// testHookExpand, when non-nil, runs at the top of every vertex expansion.
// Tests use it to inject deterministic worker panics; it must be set
// before the solve starts and cleared after it returns.
var testHookExpand func(v *vertex)

// dive expands v and orders its surviving children for a stack pop: the
// most promising comes LAST.
func (w *parWorker) dive(v *vertex) []*vertex {
	if testHookExpand != nil {
		testHookExpand(v)
	}
	kids := w.expand(v)
	orderChildren(kids, SelectLIFO, w.p.ChildOrder)
	return kids
}

const donateThreshold = 64

// loop is the worker main loop: pop locally, refill from or donate to the
// shared pool, park when the system has no work.
func (w *parWorker) loop() {
	ps := w.ps
	for {
		if w.iter&255 == 0 {
			if ps.ctx.Err() != nil {
				ps.canceled.Store(true)
				ps.shutdown()
				return
			}
			//bbvet:ignore nondet (deliberate deadline check; RB.TimeLimit is inherently wall-clock)
			if !ps.deadline.IsZero() && time.Now().After(ps.deadline) {
				ps.timedOut.Store(true)
				ps.shutdown()
				return
			}
		}
		w.iter++

		v := w.take()
		if v == nil {
			return // search complete
		}
		if v.lb >= ps.pruneLimit() {
			continue
		}
		w.stack = append(w.stack, w.dive(v)...)

		// Donate the bottom half of an oversized stack when peers starve.
		if len(w.stack) > donateThreshold {
			ps.poolMu.Lock()
			if ps.idle > 0 && len(ps.pool) < ps.workers {
				half := len(w.stack) / 2
				ps.pool = append(ps.pool, w.stack[:half]...)
				w.stack = append(w.stack[:0], w.stack[half:]...)
				ps.poolCond.Broadcast()
			}
			ps.poolMu.Unlock()
		}
	}
}

// take returns the next vertex for this worker, or nil when the global
// search is finished.
func (w *parWorker) take() *vertex {
	if n := len(w.stack); n > 0 {
		v := w.stack[n-1]
		w.stack[n-1] = nil
		w.stack = w.stack[:n-1]
		return v
	}
	ps := w.ps
	ps.poolMu.Lock()
	defer ps.poolMu.Unlock()
	for {
		if ps.done {
			return nil
		}
		if n := len(ps.pool); n > 0 {
			// Take up to a 1/workers share of the pool.
			share := n / ps.workers
			if share < 1 {
				share = 1
			}
			w.stack = append(w.stack[:0], ps.pool[n-share:]...)
			for i := n - share; i < n; i++ {
				ps.pool[i] = nil
			}
			ps.pool = ps.pool[:n-share]
			v := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			return v
		}
		ps.idle++
		if ps.idle == ps.workers {
			ps.done = true
			ps.poolCond.Broadcast()
			ps.idle--
			return nil
		}
		ps.poolCond.Wait()
		ps.idle--
	}
}
