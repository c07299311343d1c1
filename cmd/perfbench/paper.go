package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// An op solves one instance under every op setting of its family, in
// order: for paper-sweep one row of the paper's comparison (four
// settings), for dedup-wide one duplicate-detecting solve. --seconds ×
// opsPerSecond ops make the op list: a stratified draw of up to maxK pool
// instances, repeated in passes when the list is longer than the draw.
type sizing struct {
	opsPerSecond int
	maxK         int
}

var paperSizing = sizing{opsPerSecond: 20, maxK: math.MaxInt}

type solveOutcome struct {
	res core.Result
	err error
}

// solveBench runs a list of in-process core.Solve ops single-threaded.
type solveBench struct {
	cfg     config
	fam     family
	collect bool // settle collects the heap before every op
	plat    platform.Platform
	inst    []pooled
	graphs  []*taskgraph.Graph
	list    []int            // op → instance index
	out     [][]solveOutcome // op → setting → outcome
}

func newSolveBench(f family, sz sizing, cfg config) (*solveBench, error) {
	p, err := f.load()
	if err != nil {
		return nil, err
	}
	total := cfg.opCount(sz.opsPerSecond)
	k := min(len(p.Instances), sz.maxK, total)
	b := &solveBench{cfg: cfg, fam: f, plat: platform.New(procs), inst: f.stratified(p, k, cfg.seed)}
	for _, in := range b.inst {
		g, err := f.instance(in.Seed)
		if err != nil {
			return nil, err
		}
		b.graphs = append(b.graphs, g)
	}
	for pass := 0; pass < max(1, total/k); pass++ {
		for i := range b.inst {
			b.list = append(b.list, i)
		}
	}
	// A seeded shuffle spreads every effort level over the whole timed
	// phase, so a slow stretch of the host slows all of them a little
	// instead of one effort level a lot.
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(b.list), func(i, j int) { b.list[i], b.list[j] = b.list[j], b.list[i] })
	b.out = make([][]solveOutcome, len(b.list))
	return b, nil
}

// warmUp solves every stride-th instance once under one setting before
// timing. The instances are in stratum order, so the subsample keeps the
// draw's effort profile and the warm-up's length repeats across seeds.
func (b *solveBench) warmUp(s setting, stride int) error {
	for i := 0; i < len(b.graphs); i += stride {
		if _, err := core.Solve(b.graphs[i], b.plat, s.params); err != nil {
			return fmt.Errorf("warm-up seed %d: %w", b.inst[i].Seed, err)
		}
	}
	return nil
}

func setupPaper(cfg config) (bench, error) {
	b, err := newSolveBench(paperFamily, paperSizing, cfg)
	if err != nil {
		return nil, err
	}
	// Warm-up pass: the cheap DF setting on every instance, then the
	// paper's recommended exact setting on every fourth.
	if err := b.warmUp(paperFamily.settings[2], 1); err != nil {
		return nil, err
	}
	return b, b.warmUp(paperFamily.settings[0], 4)
}

func (b *solveBench) ops() int { return len(b.list) }
func (b *solveBench) close()   {}

func (b *solveBench) settle() {
	if b.collect {
		runtime.GC()
	}
}

func (b *solveBench) run(i int, tr *tracer) error {
	g := b.graphs[b.list[i]]
	outs := make([]solveOutcome, b.fam.opSettings)
	var first error
	for k, s := range b.fam.settings[:b.fam.opSettings] {
		sp := tr.begin("core.Solve " + s.name)
		res, err := core.Solve(g, b.plat, s.params)
		tr.end(sp)
		outs[k] = solveOutcome{res: res, err: err}
		if first == nil {
			first = err
		}
	}
	b.out[i] = outs
	return first
}

// check verifies one solve against its pinned cost: the run must end
// normally, exact settings must prove optimality, and the schedule must be
// complete, structurally valid and carry the reported cost.
func (b *solveBench) check(inst, setting int, o solveOutcome) error {
	if o.err != nil {
		return o.err
	}
	r := o.res
	want := taskgraph.Time(b.inst[inst].Cost[setting])
	s := b.fam.settings[setting]
	switch {
	case r.Stats.TimedOut:
		return fmt.Errorf("timed out")
	case s.params.Branching.Exact() && !r.Optimal:
		return fmt.Errorf("exact setting did not prove optimality (%v)", r.Reason)
	case r.Schedule == nil || !r.Schedule.Complete():
		return fmt.Errorf("no complete schedule")
	case r.Cost != want:
		return fmt.Errorf("cost %d, pinned %d", r.Cost, want)
	case r.Schedule.Lmax() != r.Cost:
		return fmt.Errorf("schedule Lmax %d != reported cost %d", r.Schedule.Lmax(), r.Cost)
	}
	// An exact answer must also equal every other exact setting's pinned
	// optimum (for dedup-wide: the no-dedup twin's).
	for j, o := range b.fam.settings {
		if pin := taskgraph.Time(b.inst[inst].Cost[j]); s.params.Branching.Exact() && o.params.Branching.Exact() && pin != r.Cost {
			return fmt.Errorf("cost %d, but %s's pinned optimum is %d", r.Cost, o.name, pin)
		}
	}
	if err := r.Schedule.Check(); err != nil {
		return err
	}
	if d := r.Stats.TableBudget; d > 0 && r.Stats.TableBytesInUse > d {
		return fmt.Errorf("table holds %d bytes over its %d budget", r.Stats.TableBytesInUse, d)
	}
	return nil
}

// verify checks every solve of ops [lo, hi); an op is ok when all its
// solves are, which also makes the exact settings agree on the optimum.
func (b *solveBench) verify(lo, hi int, _ *tracer) int {
	ok := 0
	for i := lo; i < hi; i++ {
		inst := b.list[i]
		good := len(b.out[i]) == b.fam.opSettings
		for k, o := range b.out[i] {
			if err := b.check(inst, k, o); err != nil {
				fmt.Fprintf(os.Stderr, "op %d (seed %d, %s): %v\n", i, b.inst[inst].Seed, b.fam.settings[k].name, err)
				good = false
			}
		}
		if good {
			ok++
		}
	}
	return ok
}

// solves flattens the outcomes of every op.
func (b *solveBench) solves() []solveOutcome {
	var out []solveOutcome
	for _, o := range b.out {
		out = append(out, o...)
	}
	return out
}

// counts are the search-effort counters of the op list; a pure speed
// change must leave them exactly as they are.
func (b *solveBench) counts() map[string]float64 {
	var gen, exp, pruned, dedup, hits float64
	var fill []float64
	maxAS := 0
	for _, o := range b.solves() {
		st := o.res.Stats
		gen += float64(st.Generated)
		exp += float64(st.Expanded)
		pruned += float64(st.PrunedChildren + st.PrunedActive)
		dedup += float64(st.DedupPruned)
		hits += float64(st.TableHits)
		maxAS = max(maxAS, st.MaxActiveSet)
		if st.TableBudget > 0 {
			fill = append(fill, float64(st.TableBytesInUse)/float64(st.TableBudget))
		}
	}
	n := float64(len(b.out)) // per op: per instance under all its settings
	c := map[string]float64{
		"core.vertices_per_op": gen / n,
		"core.expanded_per_op": exp / n,
		"core.prune_frac":      frac(pruned, gen),
		"core.max_active_set":  float64(maxAS),
	}
	if len(fill) > 0 {
		c["core.dedup_pruned_per_op"] = dedup / n
		c["transpose.hit_frac"] = frac(hits, gen)
		c["transpose.fill_frac"] = mean(fill)
	}
	return c
}

// layers reports the paper-sweep kernel metrics: mean solve time per
// setting, time per generated vertex, GC share and allocations of the
// traced pass, two direct layer probes on the same instances, and the
// request-path probe.
func (b *solveBench) layers(tr *tracer, ps phaseStats, m metricSet) error {
	paper := b.fam.file == paperFamily.file
	var solveNs, gen float64
	for _, s := range b.fam.settings[:b.fam.opSettings] {
		d := tr.durations("core.Solve " + s.name)
		if paper {
			m.set("core.solve_ms."+s.name, "ms", mean(ms(d)))
		}
		for _, x := range d {
			solveNs += float64(x)
		}
	}
	for _, o := range b.solves() {
		gen += float64(o.res.Stats.Generated)
	}
	m.set("core.ns_per_vertex", "ns", frac(solveNs, gen))
	m.set("core.gc_cpu_frac", "ratio", ps.rt.gcFrac())
	m.set("core.mallocs_per_op", "count/op", float64(ps.rt.allocObjects)/float64(len(b.list)))
	if !paper {
		return nil
	}
	m.set("sched.place_undo_ns", "ns", b.placeUndoNs(tr))
	m.set("edf.upper_bound_us", "us", b.edfUpperBoundUs(tr))
	if err := serveProbe(b.cfg, tr, m); err != nil {
		return fmt.Errorf("request path: %w", err)
	}
	return nil
}

// placeUndoNs replays the schedules of each instance's first op through a
// fresh sched.State, Placing every task in start order and then Undoing
// them all, and returns the median time per Place+Undo pair.
func (b *solveBench) placeUndoNs(tr *tracer) float64 {
	var per []float64
	seen := make([]bool, len(b.inst))
	for i, inst := range b.list {
		if seen[inst] {
			continue
		}
		seen[inst] = true
		for _, o := range b.out[i] {
			if o.res.Schedule != nil {
				per = append(per, placeUndo(b.graphs[inst], b.plat, o.res.Schedule, tr))
			}
		}
	}
	return median(per)
}

// placeUndo times reps rounds of Placing a schedule's tasks in start
// order on a fresh sched.State and Undoing them all, in ns per pair.
func placeUndo(g *taskgraph.Graph, plat platform.Platform, sch *sched.Schedule, tr *tracer) float64 {
	const reps = 50
	pls := sch.Placements()
	sort.Slice(pls, func(a, c int) bool { return pls[a].Start < pls[c].Start })
	st := sched.NewState(g, plat)
	sp := tr.begin("sched.PlaceUndo")
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range pls {
			st.Place(p.Task, p.Proc)
		}
		for range pls {
			st.Undo()
		}
	}
	d := time.Since(t0)
	tr.end(sp)
	return float64(d) / float64(reps*len(pls))
}

// edfUpperBoundUs times edf.UpperBound on every instance and returns the
// median per call.
func (b *solveBench) edfUpperBoundUs(tr *tracer) float64 {
	const reps = 20
	var per []float64
	for i, g := range b.graphs {
		sp := tr.begin("edf.UpperBound")
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if _, _, err := edf.UpperBound(g, b.plat); err != nil {
				fmt.Fprintf(os.Stderr, "edf.UpperBound seed %d: %v\n", b.inst[i].Seed, err)
			}
		}
		d := time.Since(t0)
		tr.end(sp)
		per = append(per, float64(d)/float64(reps)/1e3)
	}
	return median(per)
}
