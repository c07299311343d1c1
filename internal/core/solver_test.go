package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/deadline"
	"repro/internal/edf"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// smallWorkloads returns deadline-assigned random graphs small enough for
// the brute-force oracle (n <= 7).
func smallWorkloads(t testing.TB, count int, seed int64) []*taskgraph.Graph {
	t.Helper()
	p := gen.Defaults()
	p.NMin, p.NMax = 5, 7
	p.DepthMin, p.DepthMax = 3, 4
	g := gen.New(p, seed)
	out := make([]*taskgraph.Graph, count)
	for i := range out {
		tg := g.Graph()
		if err := deadline.Assign(tg, 1.5, deadline.EqualSlack); err != nil {
			t.Fatal(err)
		}
		out[i] = tg
	}
	return out
}

// paperWorkloads returns deadline-assigned graphs at the paper's full §4.1
// parameters (for tests that don't need the oracle).
func paperWorkloads(t testing.TB, count int, seed int64) []*taskgraph.Graph {
	t.Helper()
	g := gen.New(gen.Defaults(), seed)
	out := make([]*taskgraph.Graph, count)
	for i := range out {
		tg := g.Graph()
		if err := deadline.Assign(tg, 1.5, deadline.EqualSlack); err != nil {
			t.Fatal(err)
		}
		out[i] = tg
	}
	return out
}

func mustSolve(t testing.TB, g *taskgraph.Graph, plat platform.Platform, p Params) Result {
	t.Helper()
	res, err := Solve(g, plat, p)
	if err != nil {
		t.Fatalf("Solve(%v): %v", p, err)
	}
	return res
}

// TestOptimalAgainstBruteForce is the central correctness test: for every
// exact configuration (each selection rule × each bound function, BFn,
// BR=0), the solver must return exactly the brute-force optimum.
func TestOptimalAgainstBruteForce(t *testing.T) {
	graphs := smallWorkloads(t, 12, 1)
	for gi, g := range graphs {
		for _, m := range []int{1, 2, 3} {
			plat := platform.New(m)
			want, err := bruteforce.Solve(g, plat)
			if err != nil {
				t.Fatalf("graph %d m=%d: oracle: %v", gi, m, err)
			}
			for _, sel := range []SelectionRule{SelectLIFO, SelectLLB, SelectFIFO} {
				for _, bnd := range []BoundFunc{BoundLB0, BoundLB1, BoundNone} {
					p := Params{Selection: sel, Branching: BranchBFn, Bound: bnd}
					res := mustSolve(t, g, plat, p)
					if res.Cost != want.Cost {
						t.Errorf("graph %d m=%d %v: cost %d, oracle %d", gi, m, p, res.Cost, want.Cost)
						continue
					}
					if !res.Optimal {
						t.Errorf("graph %d m=%d %v: optimum found but not flagged optimal", gi, m, p)
					}
					if res.Schedule == nil || !res.Schedule.Complete() {
						t.Errorf("graph %d m=%d %v: no complete schedule", gi, m, p)
						continue
					}
					if err := res.Schedule.Check(); err != nil {
						t.Errorf("graph %d m=%d %v: invalid schedule: %v", gi, m, p, err)
					}
					if res.Schedule.Lmax() != res.Cost {
						t.Errorf("graph %d m=%d %v: schedule Lmax %d != cost %d",
							gi, m, p, res.Schedule.Lmax(), res.Cost)
					}
				}
			}
		}
	}
}

// TestFixtureOptima pins exact optimal costs on hand-analyzable graphs.
func TestFixtureOptima(t *testing.T) {
	// Diamond a(2)→b(3),c(5)→d(2), unit messages, D=100 for all.
	// Best on 2 procs: a@p0 [0,2), c@p0 [2,7), b@p1 [3,6), d@p0 [7,9):
	// makespan 9, Lmax = 9−100 = −91.
	g := taskgraph.Diamond()
	plat := platform.New(2)
	res := mustSolve(t, g, plat, Params{})
	if res.Cost != -91 {
		t.Fatalf("diamond optimal cost %d, want -91\n%s", res.Cost, res.Schedule)
	}

	// Single processor: pure serialization, makespan 12, Lmax −88.
	res1 := mustSolve(t, g, platform.New(1), Params{})
	if res1.Cost != -88 {
		t.Fatalf("diamond on 1 proc: cost %d, want -88\n%s", res1.Cost, res1.Schedule)
	}
}

func TestSelectionRulesAgreeOnPaperWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size exact search")
	}
	graphs := paperWorkloads(t, 3, 7)
	for gi, g := range graphs {
		plat := platform.New(2)
		base := mustSolve(t, g, plat, Params{Selection: SelectLIFO})
		for _, sel := range []SelectionRule{SelectLLB} {
			res := mustSolve(t, g, plat, Params{Selection: sel})
			if res.Cost != base.Cost {
				t.Errorf("graph %d: %v cost %d != LIFO cost %d", gi, sel, res.Cost, base.Cost)
			}
		}
	}
}

// TestBnBNeverWorseThanEDF: with the EDF-seeded upper bound the result can
// never be worse than EDF, and with exact search it is the optimum, hence
// <= EDF strictly by construction.
func TestBnBNeverWorseThanEDF(t *testing.T) {
	graphs := smallWorkloads(t, 10, 3)
	for gi, g := range graphs {
		for m := 1; m <= 3; m++ {
			plat := platform.New(m)
			edfRes, err := edf.Schedule(g, plat)
			if err != nil {
				t.Fatal(err)
			}
			res := mustSolve(t, g, plat, Params{})
			if res.Cost > edfRes.Lmax {
				t.Errorf("graph %d m=%d: B&B cost %d worse than EDF %d", gi, m, res.Cost, edfRes.Lmax)
			}
		}
	}
}

// TestApproximateRulesAreBoundedByOptimal: DF and BF1 never beat the
// optimum, always produce valid complete schedules, and (paper C3) search
// far fewer vertices than the exact rule.
func TestApproximateRules(t *testing.T) {
	graphs := smallWorkloads(t, 10, 5)
	for gi, g := range graphs {
		plat := platform.New(2)
		opt := mustSolve(t, g, plat, Params{})
		for _, br := range []BranchingRule{BranchDF, BranchBF1} {
			res := mustSolve(t, g, plat, Params{Branching: br})
			if res.Cost < opt.Cost {
				t.Errorf("graph %d %v: cost %d beats the optimum %d", gi, br, res.Cost, opt.Cost)
			}
			if res.Optimal {
				t.Errorf("graph %d %v: approximate rule flagged optimal", gi, br)
			}
			if res.Schedule == nil || res.Schedule.Check() != nil {
				t.Errorf("graph %d %v: missing or invalid schedule", gi, br)
			}
			if res.Stats.Generated > opt.Stats.Generated {
				t.Errorf("graph %d %v: searched MORE than exact (%d > %d)",
					gi, br, res.Stats.Generated, opt.Stats.Generated)
			}
		}
	}
}

// TestBRGuarantee: with BR=10% the result must satisfy
// cost − opt <= BR·|cost|, be flagged Guarantee but not Optimal, and search
// no more vertices than the exact run.
func TestBRGuarantee(t *testing.T) {
	graphs := smallWorkloads(t, 10, 9)
	for gi, g := range graphs {
		plat := platform.New(2)
		opt := mustSolve(t, g, plat, Params{})
		for _, br := range []float64{0.1, 0.5} {
			res := mustSolve(t, g, plat, Params{BR: br})
			absCost := res.Cost
			if absCost < 0 {
				absCost = -absCost
			}
			if slack := res.Cost - opt.Cost; float64(slack) > br*float64(absCost) {
				t.Errorf("graph %d BR=%v: cost %d vs opt %d violates guarantee", gi, br, res.Cost, opt.Cost)
			}
			if !res.Guarantee {
				t.Errorf("graph %d BR=%v: exhausted BFn search not flagged Guarantee", gi, br)
			}
			if res.Optimal && res.Cost != opt.Cost {
				t.Errorf("graph %d BR=%v: flagged Optimal with suboptimal cost", gi, br)
			}
			if res.Stats.Generated > opt.Stats.Generated {
				t.Errorf("graph %d BR=%v: searched more than exact (%d > %d)",
					gi, br, res.Stats.Generated, opt.Stats.Generated)
			}
		}
	}
}

func TestUpperBoundModes(t *testing.T) {
	g := smallWorkloads(t, 1, 11)[0]
	plat := platform.New(2)

	baseline := mustSolve(t, g, plat, Params{})

	// A fixed huge bound still finds the same optimum, with more search.
	naive := mustSolve(t, g, plat, Params{
		UpperBound: UpperBoundFixed, FixedUpperBound: taskgraph.Infinity,
	})
	if naive.Cost != baseline.Cost {
		t.Fatalf("naive U: cost %d != %d", naive.Cost, baseline.Cost)
	}
	if naive.Stats.Generated < baseline.Stats.Generated {
		t.Fatalf("naive U searched fewer vertices (%d) than EDF-seeded (%d)",
			naive.Stats.Generated, baseline.Stats.Generated)
	}

	// A fixed bound below the optimum prunes everything: the paper's
	// "best vertex is still the root" failure.
	hopeless := mustSolve(t, g, plat, Params{
		UpperBound: UpperBoundFixed, FixedUpperBound: baseline.Cost - 1,
	})
	if hopeless.Schedule != nil {
		t.Fatalf("bound below optimum still produced a schedule with cost %d", hopeless.Cost)
	}
	if hopeless.Cost != taskgraph.Infinity {
		t.Fatalf("failed search cost = %d, want Infinity", hopeless.Cost)
	}

	// A fixed bound exactly at optimum+1 finds the optimum (strict <).
	tight := mustSolve(t, g, plat, Params{
		UpperBound: UpperBoundFixed, FixedUpperBound: baseline.Cost + 1,
	})
	if tight.Cost != baseline.Cost {
		t.Fatalf("tight U: cost %d != %d", tight.Cost, baseline.Cost)
	}
}

func TestEDFSeedReturnedWhenAlreadyOptimal(t *testing.T) {
	// On a chain with one processor, EDF is optimal; the solver must return
	// a (EDF-seeded) schedule even when no goal improves on it.
	g := taskgraph.Chain(5, 10, 0)
	res := mustSolve(t, g, platform.New(1), Params{})
	if res.Schedule == nil {
		t.Fatal("no schedule returned although EDF seed exists")
	}
	if !res.Optimal {
		t.Fatal("exhausted exact search not flagged optimal")
	}
	edfRes, _ := edf.Schedule(g, platform.New(1))
	if res.Cost != edfRes.Lmax {
		t.Fatalf("cost %d, EDF %d — chain/1-proc must tie", res.Cost, edfRes.Lmax)
	}
}

func TestTimeLimit(t *testing.T) {
	// A big independent task set explodes combinatorially; a microscopic
	// time limit must stop the search gracefully with the EDF incumbent.
	g := taskgraph.Independent(12, 10)
	if err := deadline.Assign(g, 1.5, deadline.EqualSlack); err != nil {
		t.Fatal(err)
	}
	res := mustSolve(t, g, platform.New(3), Params{
		Resources: ResourceBounds{TimeLimit: time.Millisecond},
	})
	if !res.Stats.TimedOut {
		t.Fatal("search of 12 independent tasks on 3 procs finished in 1ms?")
	}
	if res.Optimal {
		t.Fatal("timed-out search flagged optimal")
	}
	if res.Schedule == nil {
		t.Fatal("timed-out search returned no best-so-far solution")
	}
}

func TestMaxActiveSet(t *testing.T) {
	g := smallWorkloads(t, 1, 13)[0]
	plat := platform.New(2)
	full := mustSolve(t, g, plat, Params{})
	capped := mustSolve(t, g, plat, Params{
		Resources: ResourceBounds{MaxActiveSet: 4},
	})
	if capped.Stats.MaxActiveSet > 4 {
		t.Fatalf("active set grew to %d despite cap 4", capped.Stats.MaxActiveSet)
	}
	if capped.Stats.Dropped == 0 {
		t.Fatal("cap 4 never dropped a vertex")
	}
	if capped.Optimal {
		t.Fatal("lossy search flagged optimal")
	}
	if capped.Schedule == nil {
		t.Fatal("capped search returned nothing")
	}
	if capped.Cost < full.Cost {
		t.Fatalf("capped search cost %d beats optimum %d", capped.Cost, full.Cost)
	}
}

func TestMaxChildren(t *testing.T) {
	g := smallWorkloads(t, 1, 17)[0]
	plat := platform.New(3)
	// Disable look-ahead pruning so branchings actually produce more than
	// two surviving children for the cap to discard.
	res := mustSolve(t, g, plat, Params{
		Bound:      BoundNone,
		UpperBound: UpperBoundFixed, FixedUpperBound: taskgraph.Infinity,
		Resources: ResourceBounds{MaxChildren: 2},
	})
	if res.Stats.Dropped == 0 {
		t.Fatal("MAXSZDB=2 never dropped a child on a 3-processor platform")
	}
	if res.Optimal {
		t.Fatal("child-dropping search flagged optimal")
	}
	if res.Schedule == nil || res.Schedule.Check() != nil {
		t.Fatal("capped-children search returned no valid schedule")
	}
}

func TestChildOrderAblation(t *testing.T) {
	graphs := smallWorkloads(t, 6, 19)
	for gi, g := range graphs {
		plat := platform.New(2)
		byLB := mustSolve(t, g, plat, Params{ChildOrder: ChildrenByLowerBound})
		asGen := mustSolve(t, g, plat, Params{ChildOrder: ChildrenAsGenerated})
		if byLB.Cost != asGen.Cost {
			t.Errorf("graph %d: child order changed the optimum: %d vs %d", gi, byLB.Cost, asGen.Cost)
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	g := smallWorkloads(t, 1, 23)[0]
	plat := platform.New(2)
	for _, p := range []Params{
		{},
		{Selection: SelectLLB},
		{Selection: SelectFIFO},
		{Branching: BranchDF},
		{Bound: BoundLB0},
	} {
		a := mustSolve(t, g, plat, p)
		b := mustSolve(t, g, plat, p)
		a.Stats.Elapsed, b.Stats.Elapsed = 0, 0
		if a.Cost != b.Cost || a.Stats != b.Stats {
			t.Errorf("%v: non-deterministic: %+v vs %+v", p, a.Stats, b.Stats)
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	g := smallWorkloads(t, 1, 29)[0]
	plat := platform.New(2)
	res := mustSolve(t, g, plat, Params{})
	st := res.Stats
	if st.Generated <= 0 || st.Expanded <= 0 || st.Goals <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.Generated < st.Expanded-1 {
		t.Fatalf("more expansions than generated vertices: %+v", st)
	}
	if st.MaxActiveSet <= 0 {
		t.Fatalf("active set never grew: %+v", st)
	}
	if st.IncumbentUpdates < 1 {
		// The EDF seed is rarely optimal at m=2; if this fires for every
		// seed something is wrong with goal adoption.
		t.Logf("note: EDF seed was already optimal (no incumbent updates)")
	}
	if st.TimedOut {
		t.Fatalf("unexpected timeout: %+v", st)
	}
}

func TestSolveRejectsBadInputs(t *testing.T) {
	g := taskgraph.Diamond()
	plat := platform.New(2)

	if _, err := Solve(g, plat, Params{BR: 1.5}); err == nil {
		t.Error("BR=1.5 accepted")
	}
	if _, err := Solve(g, plat, Params{Selection: SelectionRule(9)}); err == nil {
		t.Error("unknown selection rule accepted")
	}
	if _, err := Solve(g, platform.Platform{M: 0}, Params{}); err == nil {
		t.Error("invalid platform accepted")
	}
	if _, err := Solve(taskgraph.New(0), plat, Params{}); err == nil {
		t.Error("empty graph accepted")
	}
	cyc := taskgraph.New(2)
	a := cyc.AddTask(taskgraph.Task{Exec: 1, Deadline: 10})
	b := cyc.AddTask(taskgraph.Task{Exec: 1, Deadline: 10})
	cyc.MustAddEdge(a, b, 0)
	cyc.MustAddEdge(b, a, 0)
	if _, err := Solve(cyc, plat, Params{}); err == nil {
		t.Error("cyclic graph accepted")
	}
	if _, err := Solve(g, plat, Params{Resources: ResourceBounds{TimeLimit: -time.Second}}); err == nil {
		t.Error("negative time limit accepted")
	}
}

func TestParamsString(t *testing.T) {
	p := Params{}
	s := p.String()
	for _, want := range []string{"BFn", "LIFO", "LB1", "EDF", "BR=0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("Params.String() = %q missing %q", s, want)
		}
	}
}

// TestPopLocalityProxy quantifies the §6 memory-access story: LIFO selects
// vertices generated moments ago (small age at pop), while LLB-oldest
// selects the most ancient frontier entries (age spans the whole search) —
// the LRU-hostile pattern behind the paper's thrashing report.
func TestPopLocalityProxy(t *testing.T) {
	g := paperWorkloads(t, 1, 4041)[0] // contested showcase instance
	plat := platform.New(3)
	lifo := mustSolve(t, g, plat, Params{})
	llb := mustSolve(t, g, plat, Params{Selection: SelectLLB})
	if lifo.Stats.MeanPopAge <= 0 || llb.Stats.MeanPopAge <= 0 {
		t.Fatalf("locality proxy not recorded: %v / %v",
			lifo.Stats.MeanPopAge, llb.Stats.MeanPopAge)
	}
	if llb.Stats.MeanPopAge < 10*lifo.Stats.MeanPopAge {
		t.Fatalf("LLB pop age %.1f not >= 10x LIFO's %.1f",
			llb.Stats.MeanPopAge, lifo.Stats.MeanPopAge)
	}
	t.Logf("mean age at pop: LIFO %.1f vs LLB %.1f",
		lifo.Stats.MeanPopAge, llb.Stats.MeanPopAge)
}

// TestShortAffinityTableRejected: every driver validates the platform
// against the task count before building any search state, so an
// affinity table shorter than the graph is a plain input error — never a
// panic, and never a recovered *PanicError.
func TestShortAffinityTableRejected(t *testing.T) {
	g := taskgraph.Independent(4, 3)
	plat := platform.New(2)
	plat.Affinity = []uint64{1}
	drivers := map[string]func(Params) error{
		"Solve": func(p Params) error { _, err := Solve(g, plat, p); return err },
		"SolveParallel": func(p Params) error {
			_, err := SolveParallel(g, plat, ParallelParams{Params: p, Workers: 2})
			return err
		},
		"SolveIDA":          func(p Params) error { _, err := SolveIDA(g, plat, p); return err },
		"EnumerateFrontier": func(p Params) error { _, err := EnumerateFrontier(g, plat, p, 4); return err },
	}
	for name, run := range drivers {
		for _, p := range []Params{
			{UpperBound: UpperBoundEDF},
			{UpperBound: UpperBoundFixed, FixedUpperBound: taskgraph.Infinity},
		} {
			var panicked interface{}
			err := func() error {
				defer func() { panicked = recover() }()
				return run(p)
			}()
			var pe *PanicError
			switch {
			case panicked != nil:
				t.Errorf("%s U=%v: panicked: %v", name, p.UpperBound, panicked)
			case err == nil:
				t.Errorf("%s U=%v: accepted 1 affinity mask for 4 tasks", name, p.UpperBound)
			case errors.As(err, &pe):
				t.Errorf("%s U=%v: returned a recovered panic, want a plain error: %v", name, p.UpperBound, err)
			}
		}
	}
}
