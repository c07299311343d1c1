package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/transpose"
)

// dedupSizing draws 60 instances and repeats them to 160 ops per second
// of --seconds.
var dedupSizing = sizing{opsPerSecond: 160, maxK: 60}

func setupDedup(cfg config) (bench, error) {
	b, err := newSolveBench(dedupFamily, dedupSizing, cfg)
	if err != nil {
		return nil, err
	}
	// Every op starts from a collected heap. Each solve leaves a 64 MiB
	// table behind, and where the collector's cycles fall among those
	// decides whether the next table reuses freed memory or faults in new
	// pages: left to chance, the slowest tenth of the ops and the peak of
	// two to four resident tables changed from run to run by a quarter.
	// Settled, an op's time is its own allocation, zeroing and search; the
	// collections themselves are untimed.
	b.collect = true
	// The warm-up is mostly search: the no-dedup twin of every third
	// instance, then a duplicate-detecting solve of every twelfth. Each of
	// the latter zeroes a 64 MiB table, so a warm-up of those alone would
	// time the host's memory bandwidth rather than the set-up's work.
	if err := b.warmUp(dedupFamily.settings[1], 3); err != nil {
		return nil, err
	}
	return &dedupBench{b}, b.warmUp(dedupFamily.settings[0], 12)
}

// dedupBench is a solveBench whose traced pass adds the table probes and
// the no-dedup twins.
type dedupBench struct{ *solveBench }

func (b *dedupBench) layers(tr *tracer, ps phaseStats, m metricSet) error {
	if err := b.solveBench.layers(tr, ps, m); err != nil {
		return err
	}

	// transpose.New(0) alone: the default-budget table every op allocates.
	var news []float64
	for r := 0; r < 9; r++ {
		sp := tr.begin("transpose.New")
		t0 := time.Now()
		t := transpose.New(0)
		news = append(news, float64(time.Since(t0))/float64(time.Millisecond))
		tr.end(sp)
		if t.Budget() != transpose.DefaultBudget {
			return fmt.Errorf("transpose.New(0) has budget %d, want %d", t.Budget(), transpose.DefaultBudget)
		}
	}
	m.set("transpose.new_ms", "ms", median(news))

	// The same instances with dedup off: duplicate detection pays off in
	// wall time only when op_ms_p50 is below this.
	twin := dedupFamily.settings[1]
	var solo []float64
	var failed error
	for i, g := range b.graphs {
		sp := tr.begin("core.Solve " + twin.name)
		t0 := time.Now()
		r, err := core.Solve(g, b.plat, twin.params)
		solo = append(solo, float64(time.Since(t0))/float64(time.Millisecond))
		tr.end(sp)
		if err := b.check(i, 1, solveOutcome{res: r, err: err}); err != nil && failed == nil {
			failed = fmt.Errorf("no-dedup twin of seed %d: %w", b.inst[i].Seed, err)
		}
	}
	m.set("core.nodedup_ms_p50", "ms", median(solo))
	return failed
}
