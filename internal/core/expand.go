package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/transpose"
)

// expander is the branch-and-bound step of Figure 1 — materialize the
// selected vertex, branch (B), bound (L), and eliminate (E, D, duplicate
// detection) its children — written once for every search driver. It owns
// one searcher's mutable machinery: the scheduling state, the bound and
// branching rules, scratch buffers, the vertex arena, the seq counter and
// a private Stats. The driver owns selection, termination, what becomes of
// the surviving children, and the incumbent, which it lends through the
// driver interface.
//
// Params.ReferenceKernel is read here and nowhere else. Its seams are
// load (full Replay vs incremental materialize), place (full-graph bound
// vs cone-factorized boundChild, prepared by begin) and newVertex (one
// heap allocation vs the arena). Both paths make identical decisions.
type expander struct {
	plat platform.Platform
	p    Params
	n    int32  // task count: a child at this level is a goal
	drv  driver // nil for a driver that never calls expand

	st  *sched.State
	bnd *bounder
	br  *brancher
	dom *domTable        // vertex domination rule D; nil when off
	tt  *transpose.Table // duplicate detection; nil when off

	seq   uint64         // seq of the last generated child
	limit taskgraph.Time // prune limit of the current expansion
	stats Stats
	arena vertexArena

	plBuf    []sched.Placement
	readyBuf []taskgraph.TaskID
	chainBuf []*vertex
	moveBuf  []move
	children []*vertex
}

// driver is a search regime's side of an expansion: the incumbent that
// the elimination rule prunes against and that goals compete for.
type driver interface {
	// pruneLimit returns the elimination threshold in effect now: a child
	// with lb >= pruneLimit is discarded.
	pruneLimit() taskgraph.Time
	// adopt offers the goal held by st at the given cost and reports
	// whether it became the new incumbent.
	adopt(st *sched.State, cost taskgraph.Time) bool
	// incumbentCost is the cost events report as Event.Incumbent.
	incumbentCost() taskgraph.Time
}

// move is one child the branching rule generates: a ready task on a
// processor its affinity allows.
type move struct {
	task taskgraph.TaskID
	proc platform.Proc
}

// newExpander builds the machinery of one searcher. tt is the duplicate
// detection table (nil for none); the state maintains its signature only
// when there is one.
func newExpander(g *taskgraph.Graph, plat platform.Platform, p Params, tt *transpose.Table, drv driver) *expander {
	e := &expander{
		plat: plat, p: p, n: int32(g.NumTasks()), drv: drv, tt: tt,
		st:  sched.NewState(g, plat),
		bnd: newBounder(g, p.Bound),
		br:  newBrancher(g, p.Branching),
	}
	if p.Dominance {
		e.dom = newDomTable(g.NumTasks())
	}
	if tt != nil {
		e.st.EnableSignature()
	}
	return e
}

// expand expands v: it materializes v's partial schedule, stores it for
// duplicate detection, and generates and bounds every child. Goals go to
// the driver's adopt hook and never become vertices; children that the
// elimination, domination or duplicate rules discard are counted and
// emitted; the survivors are returned in generation order. The slice is
// scratch, valid until the next call.
//
// Each child is pruned against the limit in effect after any goal adopted
// earlier in the same expansion, so a sequential driver sees exactly the
// decisions of a per-child re-read. A parallel worker may adopt nothing
// while a peer improves the shared incumbent; its staler, higher limit
// only prunes less.
func (e *expander) expand(v *vertex) []*vertex {
	e.load(v)
	e.stats.Expanded++
	// Store on expansion: from here on, this state's subtree is fully
	// accounted for (explored, pruned against the incumbent allowance, or
	// — with resource drops — flagged lossy), so any later arrival at the
	// same canonical state is redundant.
	if e.tt != nil {
		e.store(v.level, v.lb)
	}
	var parentSeq uint64
	if v.parent != nil {
		parentSeq = v.parent.seq
	}
	e.emit(EventExpand, v.seq, parentSeq, v.task, v.proc, v.level, v.lb)

	e.begin()
	e.limit = e.drv.pruneLimit()
	e.children = e.children[:0]
	e.moveBuf = e.moves(e.moveBuf[:0])
	level := v.level + 1
	for _, mv := range e.moveBuf {
		pl, lb := e.place(mv)
		switch {
		case level == e.n:
			// Goal vertex: never enters AS (§3.1 variant) — it either
			// becomes the incumbent or dies.
			e.stats.Goals++
			e.emit(EventGoal, e.seq, v.seq, mv.task, mv.proc, level, lb)
			if e.drv.adopt(e.st, lb) {
				e.stats.IncumbentUpdates++
				e.limit = e.drv.pruneLimit()
				e.emit(EventIncumbent, e.seq, v.seq, mv.task, mv.proc, level, lb)
			}
		case lb >= e.limit:
			e.stats.PrunedChildren++
			e.emit(EventPrune, e.seq, v.seq, mv.task, mv.proc, level, lb)
		case e.dom != nil && e.dom.dominated(e.st):
			e.stats.DominancePruned++
			e.emit(EventDominated, e.seq, v.seq, mv.task, mv.proc, level, lb)
		case e.tt != nil && e.duplicate(level, lb):
			e.emit(EventDuplicate, e.seq, v.seq, mv.task, mv.proc, level, lb)
		default:
			k := e.newVertex()
			*k = vertex{
				parent: v, lb: lb, start: pl.Start, finish: pl.Finish,
				seq: e.seq, task: mv.task, proc: mv.proc, level: level,
			}
			e.children = append(e.children, k)
			e.emit(EventGenerate, e.seq, v.seq, mv.task, mv.proc, level, lb)
		}
		e.st.Undo()
	}
	return e.children
}

// moves appends the children of the current state to buf in generation
// order: each task the branching rule picks, on every processor in index
// order. Affinity-infeasible children are pruned at generation: they are
// never created, counted, or emitted. Universal affinity makes this the
// legacy task × processor product.
func (e *expander) moves(buf []move) []move {
	e.readyBuf = e.br.tasks(e.st, e.readyBuf[:0])
	for _, id := range e.readyBuf {
		for q := 0; q < e.plat.M; q++ {
			if e.plat.Allows(id, platform.Proc(q)) {
				buf = append(buf, move{task: id, proc: platform.Proc(q)})
			}
		}
	}
	return buf
}

// load rebuilds the state to hold v's partial schedule. The reference
// kernel resets and replays the full ancestor chain; the optimized kernel
// diffs the chain against the state's current trail and touches only the
// divergent suffix. Kept out of bbvet's hot set for the reference
// branch's error path; its optimized branch, materialize, is gated.
func (e *expander) load(v *vertex) {
	if !e.p.ReferenceKernel {
		e.chainBuf = materialize(e.st, v, e.chainBuf)
		return
	}
	e.plBuf = v.placements(e.plBuf[:0])
	if err := e.st.Replay(e.plBuf); err != nil {
		panic(fmt.Errorf("core: vertex replay: %w", err)) // replay of our own placements cannot legally fail
	}
}

// begin prepares the current state's expansion: the optimized kernel
// snapshots the parent's bound terms, which place then reuses for every
// child.
func (e *expander) begin() {
	if !e.p.ReferenceKernel {
		e.bnd.beginExpand(e.st)
	}
}

// place generates the child that schedules mv on top of the current state
// and returns its placement and lower bound. The reference kernel sweeps
// the whole graph; the optimized kernel bounds the child against the
// snapshot begin took, by the cone factorization. Both are exact, so
// events, LLB order and child sorting cannot diverge. The caller undoes
// the placement.
func (e *expander) place(mv move) (sched.Placement, taskgraph.Time) {
	pl := e.st.Place(mv.task, mv.proc)
	e.stats.Generated++
	e.seq++
	if e.p.ReferenceKernel {
		return pl, e.bnd.bound(e.st)
	}
	return pl, e.bnd.boundChild(e.st, mv.task)
}

// stateBound returns the lower bound of the current state itself.
func (e *expander) stateBound() taskgraph.Time { return e.bnd.bound(e.st) }

// newVertex returns storage for a surviving child: one heap allocation
// per child in the reference kernel, an arena slot otherwise. It stays out
// of bbvet's hot set for the reference branch, and out of line so that
// branch is not charged to expand; alloc is gated on its own.
//
//go:noinline
func (e *expander) newVertex() *vertex {
	if e.p.ReferenceKernel {
		return &vertex{}
	}
	return e.arena.alloc()
}

// duplicate reports whether duplicate detection prunes the current state,
// a child at the given level and bound: an expanded state with the same
// canonical signature and an equal-or-better bound subsumes it. Callers
// check for a table first, so a search without one pays no call.
func (e *expander) duplicate(level int32, lb taskgraph.Time) bool {
	lo, hi := e.st.Signature()
	if !e.tt.Probe(lo, hi, level, int64(lb)) {
		return false
	}
	e.stats.DedupPruned++
	return true
}

// store records the current state, about to be expanded, for duplicate
// detection. Callers check for a table first, as for duplicate.
func (e *expander) store(level int32, lb taskgraph.Time) {
	lo, hi := e.st.Signature()
	e.tt.Store(lo, hi, level, int64(lb))
}

// emit reports an event if an observer is installed. It inlines to the
// nil check, so an unobserved search pays no call per event.
func (e *expander) emit(kind EventKind, seq, parent uint64, task taskgraph.TaskID,
	proc platform.Proc, level int32, lb taskgraph.Time) {
	if e.p.Observer != nil {
		e.report(kind, seq, parent, task, proc, level, lb)
	}
}

func (e *expander) report(kind EventKind, seq, parent uint64, task taskgraph.TaskID,
	proc platform.Proc, level int32, lb taskgraph.Time) {
	e.p.Observer(Event{
		Kind: kind, Seq: seq, Parent: parent, Task: task, Proc: proc,
		Level: level, LB: lb, Incumbent: e.drv.incumbentCost(),
	})
}
