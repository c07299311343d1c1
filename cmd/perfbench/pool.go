package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// The pools are pinned: regenerate writes them, runs only read them. A
// pool lists generator seeds whose instances fall inside a fixed search-
// effort window, with the expected cost of every setting, so every op's
// answer is checked against a value computed once, not recomputed by the
// code under test.
//
//go:embed data/*.json
var poolFS embed.FS

// procs is the processor count of every in-process workload (§4.1 at
// m=3: m=2 and m=4 each hold single solves of many seconds).
const procs = 3

// setting is one named 9-tuple configuration.
type setting struct {
	name   string
	params core.Params
}

// pool is one pinned instance family.
type pool struct {
	Shape     string   `json:"shape"`
	Procs     int      `json:"procs"`
	Settings  []string `json:"settings"`
	Window    [2]int64 `json:"window"` // accepted total generated vertices, inclusive
	Scanned   [2]int64 `json:"scanned"`
	Instances []pooled `json:"instances"`
}

// pooled is one accepted instance: its generator seed, the optimal (or,
// for approximate settings, the pinned) cost under each setting, and the
// generated-vertex counts at regeneration time, used only to stratify.
type pooled struct {
	Seed      int64   `json:"seed"`
	Cost      []int64 `json:"cost"`
	Generated []int64 `json:"generated"`
}

// weight is the instance's search effort over the settings its ops run
// (the first opSettings of the family), by which stratified orders it.
func (p pooled) weight(opSettings int) int64 {
	var w int64
	for _, g := range p.Generated[:opSettings] {
		w += g
	}
	return w
}

// family describes how one pool is generated and vetted.
type family struct {
	file     string
	shape    string
	params   func() gen.Params
	settings []setting
	// opSettings is how many leading settings the timed ops run; the rest
	// pin reference answers only.
	opSettings int
	window     [2]int64
	scan       [2]int64
}

var paperFamily = family{
	file:   "paper-sweep.json",
	shape:  "gen.Defaults (§4.1), equal-slack deadlines",
	params: gen.Defaults,
	settings: []setting{
		{"lifo_bfn_lb1", core.Params{}},
		{"llb_bfn_lb1", core.Params{Selection: core.SelectLLB}},
		{"lifo_df_lb1", core.Params{Branching: core.BranchDF}},
		{"lifo_bfn_lb0", core.Params{Bound: core.BoundLB0}},
	},
	opSettings: 4,
	window:     [2]int64{50_000, 400_000},
	scan:       [2]int64{1, 2000},
}

var dedupFamily = family{
	file:  "dedup-wide.json",
	shape: "wide14: 14 tasks over 3-4 levels, otherwise gen.Defaults, equal-slack deadlines",
	params: func() gen.Params {
		p := gen.Defaults()
		p.NMin, p.NMax = 14, 14
		p.DepthMin, p.DepthMax = 3, 4
		return p
	},
	settings: []setting{
		{"lifo_bfn_lb1_dedup", core.Params{Dedup: true}},
		{"lifo_bfn_lb1", core.Params{}},
	},
	opSettings: 1,
	window:     [2]int64{0, 2_000_000},
	scan:       [2]int64{1, 300},
}

// instance generates the family's graph for one generator seed.
func (f family) instance(seed int64) (*taskgraph.Graph, error) {
	p := f.params()
	g := gen.New(p, seed).Graph()
	if err := deadline.Assign(g, p.Laxity, deadline.EqualSlack); err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	return g, nil
}

func (f family) load() (pool, error) {
	var p pool
	data, err := poolFS.ReadFile("data/" + f.file)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("%s: %w", f.file, err)
	}
	if len(p.Settings) != len(f.settings) || p.Procs != procs {
		return p, fmt.Errorf("%s: settings or procs differ from the code; regenerate", f.file)
	}
	for i, s := range f.settings {
		if p.Settings[i] != s.name {
			return p, fmt.Errorf("%s: setting %d is %q, code has %q; regenerate", f.file, i, p.Settings[i], s.name)
		}
	}
	return p, nil
}

// stratified draws k instances. The pool is ordered by search effort; the
// heaviest fifth of the draw is the pool's k/5 heaviest instances, taken
// every time (the heavy tail would otherwise decide the timings), and the
// rest of the pool is cut into the remaining number of equal strata, from
// each of which the seed picks one instance. Every seed thus gets a
// different op list with the same effort profile.
func (f family) stratified(p pool, k int, seed int64) []pooled {
	ins := append([]pooled(nil), p.Instances...)
	sort.Slice(ins, func(a, b int) bool {
		if wa, wb := ins[a].weight(f.opSettings), ins[b].weight(f.opSettings); wa != wb {
			return wa < wb
		}
		return ins[a].Seed < ins[b].Seed
	})
	k = min(k, len(ins))
	rest := ins[:len(ins)-k/5]
	strata := k - k/5
	rng := rand.New(rand.NewSource(seed))
	out := make([]pooled, 0, k)
	for s := 0; s < strata; s++ {
		lo, hi := s*len(rest)/strata, (s+1)*len(rest)/strata
		out = append(out, rest[lo+rng.Intn(hi-lo)])
	}
	return append(out, ins[len(rest):]...)
}

// regenerate rescans every family and rewrites its pool file in dir.
func regenerate(dir string) error {
	for _, f := range []family{paperFamily, dedupFamily} {
		p, err := f.scanPool()
		if err != nil {
			return err
		}
		data, err := json.Marshal(p)
		if err != nil {
			return err
		}
		// One instance per line keeps the pinned file diffable.
		data = bytes.ReplaceAll(data, []byte(`},{"seed"`), []byte("},\n{\"seed\""))
		if err := os.WriteFile(filepath.Join(dir, f.file), append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: %d instances\n", f.file, len(p.Instances))
	}
	return nil
}

// scanPool solves every scanned seed under every setting and keeps the
// instances whose total generated vertices fall inside the window. The
// time limit only guards the scan against runaway instances, which lie
// far outside the window; acceptance depends on vertex counts alone.
func (f family) scanPool() (pool, error) {
	p := pool{Shape: f.shape, Procs: procs, Window: f.window, Scanned: f.scan}
	for _, s := range f.settings {
		p.Settings = append(p.Settings, s.name)
	}
	plat := platform.New(procs)
	for seed := f.scan[0]; seed <= f.scan[1]; seed++ {
		g, err := f.instance(seed)
		if err != nil {
			return p, err
		}
		in := pooled{Seed: seed}
		var total int64
		for _, s := range f.settings {
			params := s.params
			params.Resources.TimeLimit = 2 * time.Second
			r, err := core.Solve(g, plat, params)
			if err != nil {
				return p, fmt.Errorf("%s seed %d %s: %w", f.file, seed, s.name, err)
			}
			if r.Stats.TimedOut || r.Schedule == nil {
				total = -1
				break
			}
			in.Cost = append(in.Cost, int64(r.Cost))
			in.Generated = append(in.Generated, r.Stats.Generated)
			if total += r.Stats.Generated; total > f.window[1] {
				break
			}
		}
		if total >= f.window[0] && total <= f.window[1] {
			p.Instances = append(p.Instances, in)
		}
	}
	return p, nil
}
