package core

import (
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// SolveIDA is a third exact search regime beside LIFO and LLB: cost-bounded
// iterative-deepening depth-first search (IDA*-style). It exists because it
// dissolves the trade-off at the heart of the paper's C1/§6 discussion —
// LLB expands a near-minimal vertex set but hoards an enormous active set
// (the SPARCstation thrashing), while LIFO is frugal with memory but can
// over-explore. Iterative deepening runs successive depth-first probes with
// a growing cost threshold:
//
//	threshold ← lower bound of the empty schedule
//	repeat:
//	    depth-first search, pruning every child whose bound EXCEEDS the
//	    threshold (and everything at or above the incumbent allowance);
//	    if a goal with cost <= threshold was found → it is optimal;
//	    otherwise threshold ← the smallest bound that was pruned.
//
// Memory is O(n) — there is no active set at all (the recursion stack and
// the incremental sched.State are the entire working set). The price is
// re-expansion of shallow vertices on every iteration; on plateau-heavy
// lateness landscapes the threshold typically needs very few distinct
// values, so the waste is bounded by the plateau count.
//
// The embedded rules keep their meaning where they apply: B (branching),
// L (bound), ChildOrder (dive order), BR, U, and RB.TimeLimit. The
// selection rule is ignored (the probe IS the selection discipline);
// MAXSZAS/MAXSZDB and the domination rule are rejected (there is no active
// set to bound, and the dominance table would defeat the O(n) memory
// guarantee).
func SolveIDA(g *taskgraph.Graph, plat platform.Platform, p Params) (Result, error) {
	inc, err := prepare(g, plat, p)
	if err != nil {
		return Result{}, err
	}
	if p.Dominance {
		return Result{}, fmt.Errorf("core: dominance rule is not supported by iterative deepening")
	}
	if p.Resources.MaxActiveSet != 0 || p.Resources.MaxChildren != 0 {
		return Result{}, fmt.Errorf("core: MAXSZAS/MAXSZDB are not supported by iterative deepening")
	}
	if p.Observer != nil {
		return Result{}, fmt.Errorf("core: iterative deepening does not support event observers")
	}
	if p.Prefix != nil || p.Link != nil {
		return Result{}, fmt.Errorf("core: iterative deepening does not support Prefix or Link")
	}
	if p.DedupTable != nil {
		return Result{}, fmt.Errorf("core: iterative deepening manages a private dedup table (it is reset per threshold iteration); DedupTable is not supported")
	}

	// Dedup trades the headline O(n) memory guarantee for a memory-BOUNDED
	// table: duplicates are pruned within one threshold iteration. The
	// table resets between iterations — every state must be re-expandable
	// under the next, looser threshold.
	s := &idaSolver{expander: newExpander(g, plat, p, dedupTable(p), nil), inc: inc}

	start := time.Now() //bbvet:ignore nondet (wall-clock only feeds Stats.Elapsed and the deadline)
	if p.Resources.TimeLimit > 0 {
		s.deadline = start.Add(p.Resources.TimeLimit)
	}
	s.run()
	fillTableStats(&s.stats, s.tt)
	s.stats.Elapsed = time.Since(start) //bbvet:ignore nondet (reporting only)
	// The recursion stack is the whole memory story.
	s.stats.MaxActiveSet = g.NumTasks()
	reason := TermExhausted
	if s.stats.TimedOut {
		reason = TermTimeLimit
	}
	return finish(g, plat, p, s.inc, reason, s.stats)
}

// idaSolver drives the expander without calling expand: a probe bounds
// every child before recursing into any, so threshold deferral and the
// recursion live here, on top of the expander's begin, place, duplicate
// and store.
type idaSolver struct {
	*expander
	inc incumbent

	threshold taskgraph.Time
	nextThr   taskgraph.Time

	deadline time.Time
	iter     int

	moveBufs [][]move     // per-depth scratch (avoids aliasing)
	kidBufs  [][]idaChild // per-depth child scratch, same aliasing rule
}

// idaChild is one bounded-but-not-yet-explored child of the current probe
// frame: enough to re-place it after ChildOrder sorting.
type idaChild struct {
	move
	lb taskgraph.Time
}

func (s *idaSolver) run() {
	n := int(s.n)
	s.moveBufs = make([][]move, n+1)
	s.kidBufs = make([][]idaChild, n+1)
	s.threshold = s.stateBound() // bound of the empty schedule

	for {
		if s.threshold >= s.inc.pruneLimit() {
			return // the incumbent is within allowance of every completion
		}
		if s.tt != nil {
			// Entries are only valid within one threshold iteration: a
			// state pruned as a duplicate last iteration must be
			// re-expandable now that the threshold grew.
			s.tt.Reset()
		}
		s.nextThr = taskgraph.Infinity
		s.stats.Expanded++ // the root probe
		if s.probe() {
			return // timed out
		}
		if s.inc.cost <= s.threshold {
			return // a goal at or under the threshold is optimal
		}
		if s.nextThr >= taskgraph.Infinity {
			return // nothing was pruned by threshold: space exhausted
		}
		s.threshold = s.nextThr
	}
}

// probe runs one depth-first pass under the current threshold. It returns
// true when the time limit fired.
func (s *idaSolver) probe() bool {
	s.iter++
	//bbvet:ignore nondet (deliberate deadline check; RB.TimeLimit is inherently wall-clock)
	if !s.deadline.IsZero() && s.iter&255 == 0 && time.Now().After(s.deadline) {
		s.stats.TimedOut = true
		return true
	}

	// Bound all children first (so ChildOrder can sort), then recurse.
	// The probe is the expansion of the current state; the bound phase
	// completes before any recursion, so deeper probes re-snapshotting is
	// safe, and every bound is exact — the threshold bookkeeping below
	// sees the same values the reference kernel would produce.
	depth := s.st.NumPlaced()
	level := int32(depth + 1)
	s.begin()
	moves := s.moves(s.moveBufs[depth][:0])
	s.moveBufs[depth] = moves // keep grown capacity
	kids := s.kidBufs[depth][:0]
	for _, mv := range moves {
		_, lb := s.place(mv)
		switch {
		case level == s.n:
			s.stats.Goals++
			if s.inc.adopt(s.st, lb) {
				s.stats.IncumbentUpdates++
			}
		case lb >= s.inc.pruneLimit():
			s.stats.PrunedChildren++
		case lb > s.threshold:
			// Deferred to the next iteration. Never dedup-pruned: the
			// nextThr bookkeeping must see exactly what the reference
			// search would defer.
			s.stats.PrunedChildren++
			if lb < s.nextThr {
				s.nextThr = lb
			}
		case s.tt == nil || !s.duplicate(level, lb):
			kids = append(kids, idaChild{move: mv, lb: lb})
		}
		s.st.Undo()
	}
	s.kidBufs[depth] = kids // keep grown capacity
	if s.p.ChildOrder == ChildrenByLowerBound {
		for i := 1; i < len(kids); i++ {
			for j := i; j > 0 && kids[j-1].lb > kids[j].lb; j-- {
				kids[j-1], kids[j] = kids[j], kids[j-1]
			}
		}
	}
	for _, k := range kids {
		// Re-check against the (possibly improved) incumbent.
		if k.lb >= s.inc.pruneLimit() {
			s.stats.PrunedChildren++
			continue
		}
		s.st.Place(k.task, k.proc)
		if s.tt != nil {
			s.store(level, k.lb)
		}
		s.stats.Expanded++
		timedOut := s.probe()
		s.st.Undo()
		if timedOut {
			return true
		}
	}
	return false
}
