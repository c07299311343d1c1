// Package core implements the paper's primary contribution: the
// parametrized branch-and-bound algorithm of §3 for non-preemptive
// scheduling of precedence-constrained tasks on a multiprocessor system,
// minimizing the maximum task lateness Lmax = max{f_i − D_i}.
//
// The algorithm is the Kohler–Steiglitz 9-tuple ⟨B, S, E, F, D, L, U, BR,
// RB⟩:
//
//	B  — vertex branching rule (DF, BF1, BFn; §3.3)
//	S  — vertex selection rule (LLB, FIFO, LIFO; §3.2)
//	E  — vertex elimination rule (U/DBAS; §3.6)
//	F  — characteristic function (not used by the paper; not used here)
//	D  — vertex domination rule (optional extension, see dominance.go;
//	     the paper deliberately leaves D unused to keep results general)
//	L  — lower-bound cost function (LB0, LB1; §3.5)
//	U  — initial upper-bound solution cost (EDF-seeded or fixed; §3.4/§4.4)
//	BR — inaccuracy limit for near-optimal search with guarantees
//	RB — resource bounds ⟨TIMELIMIT, MAXSZAS, MAXSZDB⟩
//
// Solve runs the algorithm of Figure 1: alternate selection, branching,
// bounding and elimination on a set of active vertices until the set is
// empty or the selection rule's stop condition fires. Goal vertices never
// enter the active set; they either become the new incumbent or die.
package core

import (
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/transpose"
)

// SelectionRule is the vertex selection rule S: which active vertex the
// algorithm explores next.
type SelectionRule int

const (
	// SelectLIFO picks the most recently generated vertex (depth-first
	// exploration). Its stop condition is an empty active set. The paper's
	// headline result C1: LIFO beats LLB by over an order of magnitude for
	// lateness minimization.
	SelectLIFO SelectionRule = iota

	// SelectLLB picks the vertex with the least lower-bound cost (best-first
	// exploration), the "default" rule of classical B&B. Its stop condition
	// fires when the least lower bound is no better than the incumbent cost,
	// which proves optimality immediately.
	SelectLLB

	// SelectFIFO picks the earliest generated vertex (breadth-first). The
	// paper dismisses it — every goal vertex sits at level n, so FIFO
	// materializes the entire tree above level n before finding any
	// solution — but it is implemented for completeness and ablations.
	SelectFIFO
)

func (s SelectionRule) String() string {
	switch s {
	case SelectLIFO:
		return "LIFO"
	case SelectLLB:
		return "LLB"
	case SelectFIFO:
		return "FIFO"
	}
	return fmt.Sprintf("SelectionRule(%d)", int(s))
}

// BranchingRule is the vertex branching rule B: which child vertices an
// explored vertex generates.
type BranchingRule int

const (
	// BranchBFn generates one child per (ready task, processor) pair. It is
	// the only rule guaranteed to find the optimum under the non-commutative
	// §4.3 scheduling operation.
	BranchBFn BranchingRule = iota

	// BranchDF fixes the task order to a depth-first traversal of the task
	// graph: the explored vertex's children schedule only the first ready
	// task in that order, one child per processor. Approximate (no
	// optimality guarantee), very cheap.
	BranchDF

	// BranchBF1 fixes the task order to ascending task level (breadth-first
	// layering): children schedule only the first ready task in that order,
	// one child per processor. Approximate.
	BranchBF1
)

func (b BranchingRule) String() string {
	switch b {
	case BranchBFn:
		return "BFn"
	case BranchDF:
		return "DF"
	case BranchBF1:
		return "BF1"
	}
	return fmt.Sprintf("BranchingRule(%d)", int(b))
}

// Exact reports whether the rule enumerates enough of the solution space to
// guarantee optimality under a non-commutative scheduling operation.
func (b BranchingRule) Exact() bool { return b == BranchBFn }

// BoundFunc is the lower-bound cost function L applied to newly generated
// vertices.
type BoundFunc int

const (
	// BoundLB1 estimates unscheduled tasks' finish times with the adaptive
	// processor-contention term ℓ_min (the earliest instant any processor
	// can accept a new task). The paper's contribution C2.
	BoundLB1 BoundFunc = iota

	// BoundLB0 is the contention-blind estimate after Hou & Shin: critical
	// path over arrival times and execution times only.
	BoundLB0

	// BoundNone makes every vertex look maximally promising (lower bound =
	// the schedule's current lateness over placed tasks only). It disables
	// all look-ahead pruning and exists for ablation benchmarks.
	BoundNone
)

func (l BoundFunc) String() string {
	switch l {
	case BoundLB1:
		return "LB1"
	case BoundLB0:
		return "LB0"
	case BoundNone:
		return "none"
	}
	return fmt.Sprintf("BoundFunc(%d)", int(l))
}

// ChildOrder controls the order freshly generated children are handed to
// the active set. The paper leaves this unspecified; it matters greatly for
// LIFO (it decides which child the depth-first dive follows) and not at all
// for LLB.
type ChildOrder int

const (
	// ChildrenByLowerBound inserts children so the most promising (least
	// lower bound) is selected first. Default.
	ChildrenByLowerBound ChildOrder = iota

	// ChildrenAsGenerated inserts children in generation order (ascending
	// task ID, then processor index).
	ChildrenAsGenerated
)

func (c ChildOrder) String() string {
	switch c {
	case ChildrenByLowerBound:
		return "by-lower-bound"
	case ChildrenAsGenerated:
		return "as-generated"
	}
	return fmt.Sprintf("ChildOrder(%d)", int(c))
}

// LLBTieBreak selects the secondary ordering of the LLB heap among vertices
// with EQUAL lower bounds. Integer lateness costs produce large equal-bound
// plateaus, and how a best-first search walks a plateau decides whether it
// behaves like breadth-first (never reaching a goal until the plateau is
// exhausted) or like a dive. The paper does not specify a tie-break — a
// plain 1976-style heap explores plateaus in roughly insertion (oldest
// first, breadth-first) order, which is the regime in which the paper
// observes LLB losing to LIFO by an order of magnitude and thrashing
// virtual memory. TieDeepest is the modern fix and is provided for the
// ablation benches.
type LLBTieBreak int

const (
	// TieOldest explores equal-bound vertices oldest-first (paper-faithful
	// default: breadth-first plateau behaviour).
	TieOldest LLBTieBreak = iota

	// TieDeepest explores equal-bound vertices deepest-level-first, newest
	// first within a level (goal-directed plateau behaviour).
	TieDeepest
)

func (b LLBTieBreak) String() string {
	switch b {
	case TieOldest:
		return "oldest"
	case TieDeepest:
		return "deepest"
	}
	return fmt.Sprintf("LLBTieBreak(%d)", int(b))
}

// UpperBoundMode selects how the initial upper-bound solution cost U is
// obtained.
type UpperBoundMode int

const (
	// UpperBoundEDF seeds U (and the incumbent schedule) from the greedy
	// EDF heuristic of §4.4, the configuration the paper recommends.
	UpperBoundEDF UpperBoundMode = iota

	// UpperBoundFixed seeds U from Params.UpperBound with no incumbent
	// schedule. Use a large positive value to reproduce the naive baseline
	// of the §6 upper-bound experiment.
	UpperBoundFixed

	// UpperBoundSeeded seeds both U and the incumbent schedule from
	// Params.SeedSchedule — a complete, structurally valid schedule from
	// any source (a list heuristic, a local-search pass, a previous
	// truncated solve). The warm-start mode of anytime pipelines.
	UpperBoundSeeded
)

func (u UpperBoundMode) String() string {
	switch u {
	case UpperBoundEDF:
		return "EDF"
	case UpperBoundFixed:
		return "fixed"
	case UpperBoundSeeded:
		return "seeded"
	}
	return fmt.Sprintf("UpperBoundMode(%d)", int(u))
}

// ResourceBounds is RB = ⟨TIMELIMIT, MAXSZAS, MAXSZDB⟩.
type ResourceBounds struct {
	// TimeLimit is the maximum wall-clock time for the search; zero means
	// unlimited. On expiry the solver returns the best solution found so
	// far, flagged as not proven optimal.
	TimeLimit time.Duration

	// MaxActiveSet (MAXSZAS) caps the active-set size; zero means
	// unlimited. When an insertion would exceed the cap, the worst active
	// vertex (largest lower bound) is dropped — possibly losing the
	// optimum, which the result flags.
	MaxActiveSet int

	// MaxChildren (MAXSZDB) caps the number of children per branching;
	// zero means unlimited. Excess children (largest lower bounds first)
	// are dropped, possibly losing the optimum.
	MaxChildren int
}

// IncumbentLink couples a run to an external incumbent exchange — the
// distributed fabric of internal/dist, or any other process holding a
// better view of the global best cost. Both funcs may be nil individually.
//
// Best is polled periodically on the search hot path (every few hundred
// iterations) and must return the best complete-solution cost known
// externally (taskgraph.Infinity when none); the solver prunes against
// min(local incumbent, Best()). Pruning against any cost that some real
// schedule achieves preserves every strictly better solution, so a
// truthful Best never loses the global optimum. Publish is invoked on the
// search goroutine each time the run strictly improves on everything it
// knows (local and external); the placement slice is only valid during
// the call and must be copied before retention. Both funcs must be safe
// for concurrent use when the same link is shared across runs.
type IncumbentLink struct {
	Best    func() taskgraph.Time
	Publish func(cost taskgraph.Time, placements []sched.Placement)
}

// Params configures one solver run. The zero value is the paper's
// recommended exact configuration (LIFO, BFn, LB1, EDF upper bound, BR=0,
// unlimited resources), so `core.Solve(g, p, core.Params{})` is the
// canonical call.
type Params struct {
	Selection  SelectionRule
	Branching  BranchingRule
	Bound      BoundFunc
	ChildOrder ChildOrder
	UpperBound UpperBoundMode

	// LLBTie picks the plateau order of the LLB heap; ignored by the other
	// selection rules. The zero value (TieOldest) is paper-faithful.
	LLBTie LLBTieBreak

	// FixedUpperBound is the initial cost U when UpperBound is
	// UpperBoundFixed. Use taskgraph.Infinity for "no initial bound".
	FixedUpperBound taskgraph.Time

	// SeedSchedule is the incumbent for UpperBoundSeeded (ignored
	// otherwise). It must be complete and structurally valid over the
	// same graph and platform passed to Solve.
	SeedSchedule *sched.Schedule

	// GlobalLowerBound, when UseGlobalBound is set, lets the solver stop
	// as soon as the incumbent cost reaches it: any externally certified
	// lower bound on the optimal Lmax (see internal/analysis) proves such
	// an incumbent optimal without exhausting the tree. An incorrect
	// (too high) bound silently yields suboptimal "optimal" results — the
	// caller owns that proof obligation.
	GlobalLowerBound taskgraph.Time
	UseGlobalBound   bool

	// BR is the inaccuracy limit in [0, 1): the solver may prune any vertex
	// whose bound is within BR·|incumbent| of the incumbent, trading
	// optimality for speed with the guarantee
	// Lacc − Lopt <= BR·|Lacc|. BR = 0 demands the exact optimum.
	//
	// This is the uniform-sign form of the paper's
	// |Lopt| <= |Lacc| <= (1+BR)·|Lopt| relation, which is ill-defined for
	// negative lateness (see DESIGN.md).
	BR float64

	// Resources bounds the search; the zero value is unlimited.
	Resources ResourceBounds

	// Dominance enables the optional vertex domination rule D (see
	// dominance.go). The paper leaves D unused to keep its results general;
	// it is provided as an extension and defaults off.
	Dominance bool

	// Dedup enables duplicate detection: the search maintains an
	// incremental 128-bit canonical signature of the partial schedule
	// (processor-permutation-invariant; see internal/sched) and a
	// memory-bounded transposition table (internal/transpose). Every
	// expanded vertex stores its signature; a generated child whose
	// signature, depth, and an equal-or-better stored bound match a table
	// entry is pruned as a duplicate (Stats.DedupPruned, EventDuplicate).
	// The search tree the paper describes re-expands states once per
	// arrival order, so wide instances see order-of-magnitude
	// searched-vertex reductions with an identical final cost. Off (the
	// default) the kernel is event-identical to a run without the knob.
	Dedup bool

	// DedupBudget caps the transposition table's memory in bytes; 0 picks
	// transpose.DefaultBudget (64 MiB). The table never allocates past the
	// budget: beyond it, replacement (depth-preferred) evicts.
	DedupBudget int64

	// DedupTable, when non-nil, supplies the transposition table instead
	// of a private one — the distributed fleet shares one table across the
	// slices a worker solves, and callers may pre-seed a table with peer
	// digests. Requires Dedup; DedupBudget is ignored (the table owns its
	// budget). Rejected by SolveIDA, which must reset its table between
	// threshold iterations and therefore always builds a private one.
	//
	// Soundness contract for a table that is warm from an earlier run:
	// pruning a child as a duplicate discards solutions the EARLIER run
	// explored against the EARLIER run's incumbent. The later run must
	// therefore start from an upper bound that already accounts for every
	// solution the earlier run found — seed it (UpperBoundSeeded) with the
	// earlier result, or share a Link incumbent exchange, as the fleet
	// does. A warm table with a cold incumbent silently loses solutions.
	DedupTable *transpose.Table

	// ReferenceKernel selects the naive, obviously-correct hot path — a
	// full ancestor-chain replay per expansion, a full-graph bound sweep
	// per generated child, and one heap allocation per surviving child —
	// instead of the optimized kernel (incremental materialization,
	// cone-bounded bound re-propagation, arena vertex allocation). The
	// expander shared by Solve, SolveParallel, SolveIDA and
	// EnumerateFrontier is its one reader, so every driver honours it. The
	// two paths produce identical results: same Cost, Optimal/Guarantee
	// flags and Stats counters (and the same frontier slices), which the
	// differential harness in internal/fuzzcheck enforces on every
	// campaign. The flag exists as that harness's escape hatch and for
	// before/after kernel benchmarks; production callers leave it false.
	ReferenceKernel bool

	// Observer, when non-nil, receives every search event (see events.go).
	// The sequential solver emits a totally ordered stream; SolveParallel
	// emits concurrently from every worker (unique Seq, no global order),
	// so the observer must be safe for concurrent use there. SolveIDA
	// rejects an observing Params.
	Observer Observer

	// Prefix pins the first placements of every explored schedule: the
	// search runs over the subtree of schedules that extend exactly this
	// placement sequence. The prefix must be a valid placement sequence
	// (each task ready when placed, recorded start/finish matching the
	// scheduling operation) that leaves at least one task unscheduled —
	// exactly what a coordinator obtains from EnumerateFrontier. A run
	// with a Prefix proves optimality only within its subtree, so
	// Result.Optimal/Guarantee are forced false; the caller that split
	// the frontier owns the global proof. Sequential solver only.
	Prefix []sched.Placement

	// Link, when non-nil, couples the run to an external incumbent
	// exchange (see IncumbentLink). Like Prefix, an externally coupled
	// run cannot certify global optimality on its own, so
	// Result.Optimal/Guarantee are forced false. Sequential solver only.
	Link *IncumbentLink
}

// Validate reports whether the parameter combination is runnable.
func (p Params) Validate() error {
	switch p.Selection {
	case SelectLIFO, SelectLLB, SelectFIFO:
	default:
		return fmt.Errorf("core: unknown selection rule %d", p.Selection)
	}
	switch p.Branching {
	case BranchBFn, BranchDF, BranchBF1:
	default:
		return fmt.Errorf("core: unknown branching rule %d", p.Branching)
	}
	switch p.Bound {
	case BoundLB0, BoundLB1, BoundNone:
	default:
		return fmt.Errorf("core: unknown bound function %d", p.Bound)
	}
	switch p.ChildOrder {
	case ChildrenByLowerBound, ChildrenAsGenerated:
	default:
		return fmt.Errorf("core: unknown child order %d", p.ChildOrder)
	}
	switch p.UpperBound {
	case UpperBoundEDF, UpperBoundFixed:
	case UpperBoundSeeded:
		if p.SeedSchedule == nil {
			return fmt.Errorf("core: UpperBoundSeeded without a SeedSchedule")
		}
	default:
		return fmt.Errorf("core: unknown upper-bound mode %d", p.UpperBound)
	}
	switch p.LLBTie {
	case TieOldest, TieDeepest:
	default:
		return fmt.Errorf("core: unknown LLB tie-break %d", p.LLBTie)
	}
	if p.BR < 0 || p.BR >= 1 {
		return fmt.Errorf("core: inaccuracy limit BR=%v outside [0,1)", p.BR)
	}
	if p.Resources.TimeLimit < 0 || p.Resources.MaxActiveSet < 0 || p.Resources.MaxChildren < 0 {
		return fmt.Errorf("core: negative resource bound %+v", p.Resources)
	}
	if p.DedupBudget < 0 {
		return fmt.Errorf("core: negative dedup budget %d", p.DedupBudget)
	}
	if !p.Dedup && (p.DedupBudget != 0 || p.DedupTable != nil) {
		return fmt.Errorf("core: DedupBudget/DedupTable set without Dedup")
	}
	return nil
}

// String renders the parameter tuple compactly, e.g.
// "⟨B=BFn S=LIFO E=U/DBAS L=LB1 U=EDF BR=0%⟩".
func (p Params) String() string {
	return fmt.Sprintf("⟨B=%s S=%s E=U/DBAS L=%s U=%s BR=%g%%⟩",
		p.Branching, p.Selection, p.Bound, p.UpperBound, p.BR*100)
}
