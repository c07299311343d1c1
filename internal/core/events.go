package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// EventKind classifies a search occurrence reported to Params.Observer.
type EventKind int

const (
	// EventExpand: a vertex was selected and is being branched.
	EventExpand EventKind = iota
	// EventGenerate: a child vertex was created and bounded, and survived
	// elimination (it enters the active set).
	EventGenerate
	// EventPrune: a child vertex was discarded by the elimination rule E
	// against the incumbent allowance.
	EventPrune
	// EventDominated: a child vertex was discarded by the domination rule D.
	EventDominated
	// EventGoal: a complete schedule was reached (it may or may not become
	// the incumbent).
	EventGoal
	// EventIncumbent: the goal strictly improved the incumbent.
	EventIncumbent
	// EventDrop: a vertex was discarded by a resource bound
	// (MAXSZAS/MAXSZDB).
	EventDrop
	// EventDuplicate: a child vertex was discarded by duplicate detection
	// (Params.Dedup): a previously expanded state with the same canonical
	// signature subsumes it.
	EventDuplicate
)

func (k EventKind) String() string {
	switch k {
	case EventExpand:
		return "expand"
	case EventGenerate:
		return "generate"
	case EventPrune:
		return "prune"
	case EventDominated:
		return "dominated"
	case EventGoal:
		return "goal"
	case EventIncumbent:
		return "incumbent"
	case EventDrop:
		return "drop"
	case EventDuplicate:
		return "duplicate"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one search occurrence. Seq identifies the vertex (the root is
// 0); Parent identifies the vertex it was generated from. For EventExpand
// the Seq is the expanded vertex's own identity.
type Event struct {
	Kind      EventKind
	Seq       uint64
	Parent    uint64
	Task      taskgraph.TaskID
	Proc      platform.Proc
	Level     int32
	LB        taskgraph.Time
	Incumbent taskgraph.Time
}

// Observer receives search events when set on Params. Observers must be
// fast (they run on the search hot path) and must not retain the Event
// pointer semantics — events are delivered by value. The sequential solver
// delivers a totally ordered stream from one goroutine. SolveParallel
// emits too, but concurrently from every worker: each event still carries
// a unique Seq (workers stamp disjoint ranges) yet there is no global
// ordering and the callback must be safe for concurrent use (see
// trace.Recorder). SolveIDA does not emit and rejects an observing
// Params.
type Observer func(Event)
