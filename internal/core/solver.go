package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/edf"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Stats records the search-effort quantities the paper reports, plus the
// internals that explain them.
type Stats struct {
	// Generated counts child vertices created and bounded — the paper's
	// primary complexity measure ("number of generated active vertices").
	Generated int64

	// Expanded counts vertices selected and branched.
	Expanded int64

	// Goals counts complete schedules reached.
	Goals int64

	// PrunedChildren counts children discarded immediately by the
	// elimination rule E against the incumbent cost.
	PrunedChildren int64

	// PrunedActive counts active-set vertices eliminated when the incumbent
	// improved (the "AS" half of E_U/DBAS), plus vertices discarded lazily
	// at selection time because the incumbent improved after their insertion.
	PrunedActive int64

	// DominancePruned counts children eliminated by the optional vertex
	// domination rule D.
	DominancePruned int64

	// DedupPruned counts children eliminated by duplicate detection
	// (Params.Dedup): their canonical state signature matched an already
	// expanded state with an equal-or-better bound.
	DedupPruned int64

	// The transposition-table gauges below are a snapshot taken when the
	// run ends; with a shared table (Params.DedupTable, SolveParallel,
	// the fleet) they are cumulative across everything the table served,
	// not per-run. All zero when Dedup is off.
	TableHits       int64 // probes answered by a subsuming entry
	TableEvictions  int64 // live entries displaced by replacement
	TableStale      int64 // dead (epoch-expired) entries touched
	TableBytesInUse int64 // live entry bytes (≤ TableBudget always)
	TableBudget     int64 // configured byte budget

	// Dropped counts vertices lost to the resource bounds MAXSZAS/MAXSZDB.
	// A nonzero value voids the optimality proof.
	Dropped int64

	// MaxActiveSet is the high-water mark of the active-set size.
	MaxActiveSet int

	// IncumbentUpdates counts strict improvements of the best solution.
	IncumbentUpdates int

	// MeanPopAge is the §6 memory-locality proxy: the mean "age" of a
	// selected vertex — how many vertices were generated between its
	// creation and its selection. Under LRU paging, young vertices live on
	// resident pages and old ones have been evicted: LIFO's age stays
	// near the branching factor (it explores what it just created), while
	// LLB-oldest selects the most ancient frontier entries — the access
	// pattern behind the paper's virtual-memory thrashing report. Zero
	// when nothing beyond the root was expanded.
	MeanPopAge float64

	// Elapsed is the wall-clock search time.
	Elapsed time.Duration

	// TimedOut reports whether RB.TimeLimit expired before exhaustion.
	TimedOut bool
}

// Result is the outcome of one Solve run.
type Result struct {
	// Schedule is the best complete schedule found; nil when the search
	// failed to find any complete solution below the initial upper bound
	// (the paper's "best vertex is still the root" failure case).
	Schedule *sched.Schedule

	// Cost is Schedule's maximum task lateness (Infinity when nil).
	Cost taskgraph.Time

	// Optimal reports a PROVEN optimum: the search exhausted the solution
	// space with an exact branching rule, BR = 0, and no resource losses.
	Optimal bool

	// Guarantee reports that Cost − Lopt <= BR·|Cost| is proven (always
	// true when Optimal; true for exhausted BFn searches with BR > 0).
	Guarantee bool

	// Reason records why the run ended (the typed form of the anytime
	// contract: every bounded or canceled exit still returns the best
	// incumbent, and Reason says which kind of exit it was).
	Reason TermReason

	Stats  Stats
	Params Params
}

type solver struct {
	*expander
	ctx context.Context
	as  activeSet

	inc      incumbent
	extBound taskgraph.Time // best external cost seen via Link.Best

	lost          bool // optimum potentially lost to resource bounds
	provedByBound bool // terminated early because the incumbent met the global bound
	canceled      bool // terminated early because the context was canceled
	panicked      *PanicError

	popAgeSum float64
	popAgeObs int64
	deadline  time.Time
}

// Solve runs the parametrized branch-and-bound algorithm of Figure 1 with
// no cancellation (context.Background). See SolveContext for the anytime
// and failure contract.
func Solve(g *taskgraph.Graph, plat platform.Platform, p Params) (Result, error) {
	return SolveContext(context.Background(), g, plat, p)
}

// SolveContext runs the parametrized branch-and-bound algorithm of
// Figure 1 under the given context.
//
// Anytime contract: every bounded exit — RB.TimeLimit expiry, context
// cancellation, or a recovered internal panic — still returns the best
// incumbent found so far (or the EDF seed when nothing better was reached)
// with Result.Reason typed accordingly and Optimal/Guarantee false. A
// canceled run returns a nil error; only invalid inputs and recovered
// panics (*PanicError, Result still populated best-effort) produce one.
func SolveContext(ctx context.Context, g *taskgraph.Graph, plat platform.Platform, p Params) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Step 1–2: initialize the incumbent ("best vertex") with the
	// upper-bound solution cost U.
	inc, err := prepare(g, plat, p)
	if err != nil {
		return Result{}, err
	}
	if p.Dominance && g.NumTasks() > 63 {
		return Result{}, fmt.Errorf("core: dominance rule supports at most 63 tasks, graph has %d", g.NumTasks())
	}
	if err := checkPrefix(g, plat, p.Prefix); err != nil {
		return Result{}, err
	}

	s := &solver{ctx: ctx, as: newActiveSet(p.Selection, p.LLBTie), inc: inc, extBound: taskgraph.Infinity}
	s.expander = newExpander(g, plat, p, dedupTable(p), s)

	start := time.Now() //bbvet:ignore nondet (wall-clock only feeds Stats.Elapsed and the deadline)
	if p.Resources.TimeLimit > 0 {
		s.deadline = start.Add(p.Resources.TimeLimit)
	}
	s.runRecovering()
	s.arena.release() // the search tree is dead; drop its slabs wholesale
	fillTableStats(&s.stats, s.tt)
	s.stats.Elapsed = time.Since(start) //bbvet:ignore nondet (reporting only)
	if s.popAgeObs > 0 {
		s.stats.MeanPopAge = s.popAgeSum / float64(s.popAgeObs)
	}

	var reason TermReason
	switch {
	case s.panicked != nil:
		reason = TermPanic
	case s.canceled:
		reason = TermCanceled
	case s.stats.TimedOut:
		reason = TermTimeLimit
	case s.provedByBound:
		reason = TermGlobalBound
	case s.lost:
		reason = TermResourceLoss
	default:
		reason = TermExhausted
	}
	res, err := finish(g, plat, p, s.inc, reason, s.stats)
	if err != nil {
		return Result{}, err
	}
	if s.panicked != nil {
		return res, s.panicked
	}
	return res, nil
}

// incumbent is the best solution a run knows: its cost, the placement
// sequence of the best goal the search adopted (nil while the seed still
// stands), and the upper-bound seed schedule (nil under UpperBoundFixed).
// Its driver methods are the plain sequential rules that EnumerateFrontier
// and SolveIDA use directly and Solve extends.
type incumbent struct {
	cost taskgraph.Time
	seq  []sched.Placement
	seed *sched.Schedule
	br   float64 // the BR allowance pruneLimit applies
}

func (inc *incumbent) pruneLimit() taskgraph.Time { return pruneLimitFor(inc.cost, inc.br) }

func (inc *incumbent) incumbentCost() taskgraph.Time { return inc.cost }

func (inc *incumbent) adopt(st *sched.State, cost taskgraph.Time) bool {
	if cost >= inc.cost {
		return false
	}
	inc.cost = cost
	inc.seq = st.AppendPlacements(inc.seq[:0])
	return true
}

// prepare runs the checks every driver shares — parameters, the platform
// against the task count, acyclicity, a non-empty graph — and resolves the
// upper-bound rule U into the initial incumbent. Each driver adds only its
// own restrictions.
func prepare(g *taskgraph.Graph, plat platform.Platform, p Params) (incumbent, error) {
	if err := p.Validate(); err != nil {
		return incumbent{}, err
	}
	if err := plat.ValidateFor(g.NumTasks()); err != nil {
		return incumbent{}, err
	}
	if _, err := g.TopoOrder(); err != nil {
		return incumbent{}, err
	}
	if g.NumTasks() == 0 {
		return incumbent{}, fmt.Errorf("core: empty task graph")
	}
	inc := incumbent{br: p.BR}
	switch p.UpperBound {
	case UpperBoundEDF:
		cost, schedule, err := edf.UpperBound(g, plat)
		if err != nil {
			return incumbent{}, err
		}
		inc.cost, inc.seed = cost, schedule
	case UpperBoundFixed:
		inc.cost = p.FixedUpperBound
	case UpperBoundSeeded:
		seed := p.SeedSchedule
		if !seed.Complete() || seed.Graph != g {
			return incumbent{}, fmt.Errorf("core: seed schedule incomplete or over a different graph")
		}
		if err := seed.Check(); err != nil {
			return incumbent{}, fmt.Errorf("core: invalid seed schedule: %w", err)
		}
		inc.cost, inc.seed = seed.Lmax(), seed
	}
	return inc, nil
}

// finish assembles a driver's Result. A sequence the search adopted is
// replayed on a fresh state — never the search's own, which a recovered
// panic may have left mid-mutation — and must reproduce its recorded
// cost; otherwise the seed stands. The proof flags follow from how the
// run ended.
func finish(g *taskgraph.Graph, plat platform.Platform, p Params, inc incumbent, reason TermReason, stats Stats) (Result, error) {
	res := Result{Cost: taskgraph.Infinity, Reason: reason, Params: p, Stats: stats}
	switch {
	case inc.seq != nil:
		fresh := sched.NewState(g, plat)
		if err := fresh.Replay(inc.seq); err != nil {
			return Result{}, fmt.Errorf("core: incumbent replay: %w", err)
		}
		res.Schedule = fresh.Snapshot()
		res.Cost = fresh.Lmax()
		if res.Cost != inc.cost {
			return Result{}, fmt.Errorf("core: incumbent cost drift: recorded %d, replayed %d", inc.cost, res.Cost)
		}
	case inc.seed != nil:
		res.Schedule = inc.seed
		res.Cost = inc.cost
	}

	res.Guarantee = reason == TermExhausted && p.Branching.Exact() && res.Schedule != nil
	res.Optimal = res.Guarantee && p.BR == 0
	if reason == TermGlobalBound && res.Schedule != nil {
		// The incumbent met a certified external lower bound: optimal by
		// that certificate, regardless of how the search was cut short.
		res.Optimal, res.Guarantee = true, true
	}
	if p.Prefix != nil || p.Link != nil {
		// A subtree-restricted or externally coupled run proves nothing
		// global on its own: exhaustion here means "no schedule extending
		// the prefix beats min(local, external)". The coordinator that
		// split the frontier assembles the global proof from every slice.
		res.Optimal, res.Guarantee = false, false
	}
	return res, nil
}

// runRecovering executes the search, converting a panic anywhere inside it
// into a recorded *PanicError so one poisoned instance cannot kill a fleet
// of solver invocations. The scheduling state may be mid-mutation after a
// panic; finish never touches it, so salvaging the incumbent stays safe.
func (s *solver) runRecovering() {
	defer func() {
		if r := recover(); r != nil {
			s.panicked = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	s.run()
}

// pruneLimit returns the current elimination threshold: a vertex with
// lb >= pruneLimit cannot improve the incumbent by more than the BR
// allowance and is discarded. With BR = 0 this is exactly the incumbent
// cost (E_U/DBAS: prune when L(v) >= L(v_u)). A linked run prunes against
// the best cost known anywhere — local incumbent or external broadcast.
func (s *solver) pruneLimit() taskgraph.Time {
	return pruneLimitFor(min(s.inc.cost, s.extBound), s.p.BR)
}

// pruneLimitFor applies the BR allowance to an incumbent cost: the one
// elimination threshold every driver prunes with.
func pruneLimitFor(c taskgraph.Time, br float64) taskgraph.Time {
	if br == 0 || c >= taskgraph.Infinity/2 {
		return c
	}
	abs := c
	if abs < 0 {
		abs = -abs
	}
	return c - taskgraph.Time(br*float64(abs))
}

func (s *solver) incumbentCost() taskgraph.Time { return s.inc.cost }

// adopt installs the goal held by st as the new best solution when it
// beats both the local incumbent and the external bound, and applies the
// elimination rule E_U/DBAS to the active set. A linked run announces the
// improvement immediately — adoption is gated on beating the external
// bound too, so every publish is a strict global improvement as of the
// last poll.
func (s *solver) adopt(st *sched.State, cost taskgraph.Time) bool {
	if cost >= s.extBound || !s.inc.adopt(st, cost) {
		return false
	}
	s.stats.PrunedActive += int64(s.as.pruneAbove(s.pruneLimit()))
	if l := s.p.Link; l != nil && l.Publish != nil {
		l.Publish(cost, s.inc.seq)
	}
	return true
}

// pollLink refreshes the external bound from the incumbent exchange.
func (s *solver) pollLink() {
	if l := s.p.Link; l != nil && l.Best != nil {
		if b := l.Best(); b < s.extBound {
			s.extBound = b
			s.stats.PrunedActive += int64(s.as.pruneAbove(s.pruneLimit()))
		}
	}
}

func (s *solver) run() {
	// The root vertex carries the paper's cost U conceptually; operationally
	// its bound is MinTime so that neither the elimination rule nor the LLB
	// stop condition can discard the empty schedule itself. A Prefix is
	// installed as a synthetic ancestor chain under the root: materialize
	// replays it like any other chain, goal detection and placement
	// reconstruction see the full schedule depth.
	s.as.push(prefixChain(s.p.Prefix))
	s.pollLink()

	for iter := 0; s.as.len() > 0; iter++ {
		if s.p.UseGlobalBound && s.inc.cost <= s.p.GlobalLowerBound {
			s.provedByBound = true
			return
		}
		if iter&255 == 0 {
			if s.ctx.Err() != nil {
				s.canceled = true
				return
			}
			//bbvet:ignore nondet (deliberate deadline check; RB.TimeLimit is inherently wall-clock)
			if !s.deadline.IsZero() && time.Now().After(s.deadline) {
				s.stats.TimedOut = true
				return
			}
			s.pollLink()
			if s.as.len() == 0 {
				// The tightened external bound emptied the active set.
				return
			}
		}

		// Step 4–5: select a vertex; stop or skip per the selection rule.
		if s.p.Selection == SelectLLB && s.as.peekBound() >= s.pruneLimit() {
			// LLB stop condition: the least lower bound can no longer beat
			// the incumbent — optimality is proven right here.
			return
		}
		v := s.as.pop()
		if v.seq > 0 { // the root has no meaningful age
			s.popAgeSum += float64(s.seq - v.seq)
			s.popAgeObs++
		}
		if v.lb >= s.pruneLimit() {
			// Stale vertex: inserted before the incumbent improved.
			s.stats.PrunedActive++
			continue
		}

		// Step 6–9: branch, bound and eliminate the children, then move
		// the survivors into AS (MAXSZDB, ChildOrder, MAXSZAS).
		s.insertChildren(s.expand(v))
		if s.as.len() > s.stats.MaxActiveSet {
			s.stats.MaxActiveSet = s.as.len()
		}
	}
}

// insertChildren applies MAXSZDB, orders the surviving children per
// ChildOrder, pushes them, and enforces MAXSZAS.
func (s *solver) insertChildren(kids []*vertex) {
	if max := s.p.Resources.MaxChildren; max > 0 && len(kids) > max {
		// Keep the most promising children.
		sort.Slice(kids, func(i, j int) bool { return kids[i].lb < kids[j].lb })
		for _, k := range kids[max:] {
			s.emit(EventDrop, k.seq, k.parent.seq, k.task, k.proc, k.level, k.lb)
		}
		s.stats.Dropped += int64(len(kids) - max)
		s.lost = true
		kids = kids[:max]
	}
	orderChildren(kids, s.p.Selection, s.p.ChildOrder)

	maxAS := s.p.Resources.MaxActiveSet
	for _, k := range kids {
		s.as.push(k)
		if maxAS > 0 && s.as.len() > maxAS {
			dropped := s.as.dropWorst()
			var dps uint64
			if dropped.parent != nil {
				dps = dropped.parent.seq
			}
			s.emit(EventDrop, dropped.seq, dps, dropped.task, dropped.proc, dropped.level, dropped.lb)
			s.stats.Dropped++
			// Dropping any vertex below the prune limit may lose the optimum.
			if dropped.lb < s.pruneLimit() {
				s.lost = true
			}
		}
	}
}

// orderChildren puts freshly generated children in insertion order per
// ChildOrder. Under LIFO selection the child to be selected first must be
// pushed last: descending lb, or generation order reversed.
func orderChildren(kids []*vertex, sel SelectionRule, order ChildOrder) {
	switch {
	case order == ChildrenByLowerBound && sel == SelectLIFO:
		sortChildrenByLB(kids, true)
	case order == ChildrenByLowerBound:
		sortChildrenByLB(kids, false)
	case sel == SelectLIFO:
		for i, j := 0, len(kids)-1; i < j; i, j = i+1, j-1 {
			kids[i], kids[j] = kids[j], kids[i]
		}
	}
}

// sortChildrenByLB is a stable insertion sort on the lower bound
// (descending when desc is set). Child lists are branching-factor sized,
// where insertion sort wins outright — and unlike sort.SliceStable it
// allocates nothing, which keeps the steady-state dive loop allocation
// free. Stability matters: equal-bound children must keep generation
// order, the documented ChildrenByLowerBound tie-break.
func sortChildrenByLB(kids []*vertex, desc bool) {
	for i := 1; i < len(kids); i++ {
		for j := i; j > 0; j-- {
			if desc {
				if kids[j-1].lb >= kids[j].lb {
					break
				}
			} else if kids[j-1].lb <= kids[j].lb {
				break
			}
			kids[j-1], kids[j] = kids[j], kids[j-1]
		}
	}
}

// prefixChain builds the search root for a (possibly empty) prefix: the
// base root plus one synthetic ancestor vertex per pinned placement. The
// vertices carry lb = MinTime (they are never re-bounded or pruned) and
// seq = 0 (no meaningful age); materialize and placements() treat them
// exactly like search-generated ancestors.
func prefixChain(prefix []sched.Placement) *vertex {
	root := &vertex{lb: taskgraph.MinTime, task: taskgraph.NoTask, proc: platform.NoProc}
	for _, pl := range prefix {
		root = &vertex{
			parent: root, lb: taskgraph.MinTime,
			start: pl.Start, finish: pl.Finish,
			task: pl.Task, proc: pl.Proc, level: root.level + 1,
		}
	}
	return root
}

// checkPrefix validates a Params.Prefix against the instance by replaying
// it on a throwaway state: range errors surface as Replay errors, and a
// structurally impossible sequence (task not ready, start/finish not
// matching the scheduling operation) surfaces as a recovered panic. A nil
// or empty prefix is trivially valid.
func checkPrefix(g *taskgraph.Graph, plat platform.Platform, prefix []sched.Placement) (err error) {
	if len(prefix) == 0 {
		return nil
	}
	if len(prefix) >= g.NumTasks() {
		return fmt.Errorf("core: prefix pins %d of %d tasks; at least one must remain unscheduled", len(prefix), g.NumTasks())
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: invalid prefix: %v", r)
		}
	}()
	if rerr := sched.NewState(g, plat).Replay(prefix); rerr != nil {
		return fmt.Errorf("core: invalid prefix: %w", rerr)
	}
	return nil
}
