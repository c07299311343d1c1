package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// FrontierSlice is one unexplored subtree of the search: the placement
// prefix identifying its root and the root's lower bound. A slice is a
// self-contained subproblem — replaying the prefix on a fresh state and
// searching below it (Params.Prefix) explores exactly the subtree.
type FrontierSlice struct {
	Prefix []sched.Placement
	LB     taskgraph.Time
}

// Frontier is the outcome of EnumerateFrontier: either the slices that
// jointly cover everything the expansion did not finish, or (Exhausted)
// the completed search itself.
type Frontier struct {
	// Slices are the surviving subtree roots in generation (FIFO) order.
	// Empty iff Exhausted.
	Slices []FrontierSlice

	// BestCost is the incumbent cost after the expansion: the upper-bound
	// seed, improved by any goal the shallow expansion reached.
	BestCost taskgraph.Time

	// BestSeq is the placement sequence of the best goal reached during
	// expansion; nil when the incumbent is still the seed.
	BestSeq []sched.Placement

	// Seed is the upper-bound seed schedule (EDF or Params.SeedSchedule);
	// nil under UpperBoundFixed.
	Seed *sched.Schedule

	// Exhausted reports that the expansion drained the whole tree: the
	// incumbent is the final answer and there is nothing to distribute.
	// With an exact branching rule and BR = 0 it is the proven optimum.
	Exhausted bool

	// Stats covers the expansion itself (the coordinator's share of the
	// search effort).
	Stats Stats
}

// PruneLimit returns the elimination threshold the solver uses for an
// incumbent cost c under inaccuracy allowance br: vertices whose lower
// bound is >= the limit are pruned. Exported for coordinators that prune
// undispatched frontier slices against a broadcast incumbent with exactly
// the solver's rule.
func PruneLimit(c taskgraph.Time, br float64) taskgraph.Time {
	return pruneLimitFor(c, br)
}

// EnumerateFrontier expands the root breadth-first until at least target
// subtree roots survive pruning (or the search finishes outright) and
// returns them as self-contained slices. The expansion applies the same
// branching, bounding and elimination rules a sequential solve would, so
// the slice set plus the expansion's own work partitions the sequential
// search tree exactly: every vertex of the sequential tree is in the
// expansion, below exactly one slice, or pruned by a bound both searches
// share. Goals reached during expansion are adopted into the incumbent,
// never sliced.
//
// The frontier is deterministic: same instance, same Params, same target
// ⇒ same slices in the same order.
func EnumerateFrontier(g *taskgraph.Graph, plat platform.Platform, p Params, target int) (Frontier, error) {
	if target < 1 {
		return Frontier{}, fmt.Errorf("core: frontier target %d < 1", target)
	}
	inc, err := prepare(g, plat, p)
	if err != nil {
		return Frontier{}, err
	}
	if p.Prefix != nil || p.Link != nil || p.Observer != nil {
		return Frontier{}, fmt.Errorf("core: frontier expansion does not support Prefix, Link or Observer")
	}
	if p.Dominance {
		return Frontier{}, fmt.Errorf("core: frontier expansion does not support the dominance rule")
	}
	if p.Resources.MaxActiveSet != 0 || p.Resources.MaxChildren != 0 {
		return Frontier{}, fmt.Errorf("core: MAXSZAS/MAXSZDB are not supported by frontier expansion")
	}

	// The expansion never dedups (no table, whatever p.Dedup says): every
	// child it discards is discarded by a bound, as the partition needs.
	x := newExpander(g, plat, p, nil, &inc)
	queue := []*vertex{prefixChain(nil)}

	// The root is always expanded (even when target == 1) so every emitted
	// slice carries a non-empty prefix — a slice must be a strict subtree.
	for len(queue) > 0 && (len(queue) < target || x.stats.Expanded == 0) {
		v := queue[0]
		queue = queue[1:]
		if v.lb >= inc.pruneLimit() {
			x.stats.PrunedActive++
			continue
		}
		queue = append(queue, x.expand(v)...)
		if len(queue) > x.stats.MaxActiveSet {
			x.stats.MaxActiveSet = len(queue)
		}
	}

	// Emit the survivors; vertices inserted before the incumbent improved
	// are discarded here, exactly like the solver's lazy selection prune.
	f := Frontier{BestCost: inc.cost, BestSeq: inc.seq, Seed: inc.seed}
	for _, v := range queue {
		if v.lb >= inc.pruneLimit() {
			x.stats.PrunedActive++
			continue
		}
		f.Slices = append(f.Slices, FrontierSlice{Prefix: v.placements(nil), LB: v.lb})
	}
	f.Stats = x.stats
	f.Exhausted = len(f.Slices) == 0
	return f, nil
}
