// Command perfbench is the repository benchmark. One invocation runs one
// named workload in a single process: it builds a fixed op list from the
// seed, times every op, verifies every output, and prints every metric by
// name and unit. The last line of standard output is the result object
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// preceded by one {"meta": …} line with the run's metadata (commit, Go
// version, GOMAXPROCS, CPU model, seed, sample counts, host probe, and the
// op-list counts that must repeat exactly from run to run).
//
// Usage (from the repository root; cmd/perfbench/run.py builds and runs it):
//
//	perfbench --workload paper-sweep --seed 1 --seconds 15 --trace 0
//	perfbench --regenerate cmd/perfbench/data   # rewrite the pinned instance pools
//
// --seconds scales the op list (ops per nominal second × seconds); it is
// never a timer, so a run's op list depends only on the workload, the
// seed and --seconds.
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics from a separately timed, traced pass (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeed is the pinned workload seed. README.md names the alternate
// seed on which a claim tuned on the default is re-checked.
const defaultSeed = 1

// setupReps is how many times an untraced run repeats its set-up; setup_s
// is the median, so the first set-up, which alone faults in the heap's
// pages, does not decide it.
const setupReps = 5

type config struct {
	seed    int64
	seconds int
	ops     int // when > 0, the op-list length instead of one set by seconds
	trace   bool
}

// opCount is the op-list length for a workload running rate ops per
// nominal second.
func (c config) opCount(rate int) int {
	if c.ops > 0 {
		return c.ops
	}
	return c.seconds * rate
}

// bench is one workload's prepared op list. settle runs untimed before
// each op. run executes op i and may record spans on tr (nil when
// untraced).
// verify checks the outputs of ops [lo, hi) once they have run, returns
// how many passed, and may release what it no longer needs. counts
// returns the op-list counters that repeat exactly from run to run.
// layers adds the per-layer metrics of a traced pass, probing layers
// directly where the op list calls them only indirectly; an error means a
// probe's output failed verification.
type bench interface {
	ops() int
	settle()
	run(i int, tr *tracer) error
	verify(lo, hi int, tr *tracer) (ok int)
	counts() map[string]float64
	layers(tr *tracer, phase phaseStats, out metricSet) error
	close()
}

type workload struct {
	name  string
	setup func(cfg config) (bench, error)
}

var workloads = []workload{
	{"paper-sweep", setupPaper},
	{"dedup-wide", setupDedup},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// phaseStats describes one timed pass over the op list.
type phaseStats struct {
	lat      []time.Duration
	wall     time.Duration // the ops' summed latency
	errors   int
	ok       int           // ops whose output passed verification
	rt       runtimeSample // runtime counters summed over segments
	rssPeaks []float64     // MB, each op's peak RSS
}

// segments is how many parts a pass is timed in. Between parts the clock
// stops while the finished part's outputs are verified and released and
// the heap is collected and returned to the OS, so verification is never
// timed, kept outputs do not pile up, and each part starts from the same
// clean heap.
const segments = 10

// timed runs every op once, in order, timing each from outside.
func timed(b bench, tr *tracer) phaseStats {
	n := b.ops()
	ps := phaseStats{lat: make([]time.Duration, n), rssPeaks: make([]float64, 0, n)}
	for s := 0; s < segments; s++ {
		lo, hi := s*n/segments, (s+1)*n/segments
		debug.FreeOSMemory()
		before := readRuntime()
		for i := lo; i < hi; i++ {
			b.settle()
			resetPeakRSS()
			t0 := time.Now()
			sp := tr.begin("op")
			if err := b.run(i, tr); err != nil {
				ps.errors++
				fmt.Fprintf(os.Stderr, "op %d: %v\n", i, err)
			}
			tr.end(sp)
			ps.lat[i] = time.Since(t0)
			ps.wall += ps.lat[i]
			ps.rssPeaks = append(ps.rssPeaks, peakRSS())
		}
		ps.rt = ps.rt.add(readRuntime().sub(before))
		ps.ok += b.verify(lo, hi, tr)
	}
	return ps
}

// setupTimed runs a workload's set-up and times it.
func setupTimed(w workload, cfg config) (bench, time.Duration, error) {
	t0 := time.Now()
	b, err := w.setup(cfg)
	return b, time.Since(t0), err
}

// outcome is everything one run measured, before formatting.
type outcome struct {
	res  result
	meta map[string]any
}

func runWorkload(w workload, cfg config) (outcome, error) {
	meta := map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
	if cfg.trace {
		return runTraced(w, cfg, meta)
	}

	// Set up setupReps times and keep the last; earlier copies are closed
	// so only one server or op list is live during the timed phase.
	var b bench
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		nb, d, err := setupTimed(w, cfg)
		if err != nil {
			return outcome{}, fmt.Errorf("setup: %w", err)
		}
		b = nb
		setups = append(setups, d.Seconds())
	}
	defer b.close()
	ps := timed(b, nil)
	n, ok := b.ops(), ps.ok
	lat := ms(ps.lat)
	m := metricSet{}
	m.set("ops_per_s", "1/s", float64(n)/ps.wall.Seconds())
	m.set("op_ms_p50", "ms", quantile(lat, 0.50))
	m.set("op_ms_p95", "ms", quantile(lat, 0.95))
	m.set("ok_frac", "ratio", float64(ok)/float64(n))
	m.set("alloc_mb_per_op", "MB/op", float64(ps.rt.allocBytes)/1e6/float64(n))
	// The median op's peak, not the highest: a peak rests on where the
	// collector's cycles fall among the largest searches, and the highest
	// reading of a run moved by an eighth between runs.
	m.set("rss_peak_mb", "MB", median(ps.rssPeaks))
	m.set("setup_s", "s", median(setups))

	// Every op-latency percentile and ok_frac rest on n samples; the rest
	// are one reading per run except setup_s (a median of setupReps).
	meta["samples"] = map[string]int{
		"op_latency": n,
		"beyond_p95": n - int(math.Ceil(0.95*float64(n))),
		"setup_s":    len(setups),
		"rss_peak":   len(ps.rssPeaks),
	}
	meta["timed_wall_s"] = ps.wall.Seconds()
	meta["setup_s_each"] = setups
	meta["op_ms_quantiles"] = map[string]float64{
		"p10": quantile(lat, 0.10), "p25": quantile(lat, 0.25), "p75": quantile(lat, 0.75),
		"p90": quantile(lat, 0.90), "p99": quantile(lat, 0.99),
	}
	meta["counts"] = b.counts()
	return outcome{
		res:  result{Correct: ok == n && ps.errors == 0, Attempted: n, Failed: n - ok, Metrics: m},
		meta: meta,
	}, nil
}

// runTraced reports the per-layer metrics of a traced pass and the
// tracing overhead. Three passes run, each on its own fresh set-up (a pass
// warms caches the next must not see), in the order traced, untraced,
// traced, so that linear drift over the run cancels; the last is the one
// verified and reported.
func runTraced(w workload, cfg config, meta map[string]any) (outcome, error) {
	var b bench
	var tr *tracer
	var ps phaseStats
	var walls [2]time.Duration // untraced, traced
	order := []bool{true, false, true}
	for k, traced := range order {
		nb, _, err := setupTimed(w, cfg)
		if err != nil {
			return outcome{}, fmt.Errorf("setup: %w", err)
		}
		var t *tracer
		if traced {
			t = newTracer()
		}
		p := timed(nb, t)
		if traced {
			walls[1] += p.wall
		} else {
			walls[0] += p.wall
		}
		if k < len(order)-1 {
			nb.close()
			runtime.GC()
			continue
		}
		b, tr, ps = nb, t, p
	}
	defer b.close()
	m := metricSet{}
	for _, l := range perLayer {
		m.set(l.name, l.unit, 0)
	}
	m.set("bench.trace_overhead_frac", "ratio", walls[1].Seconds()/2/walls[0].Seconds()-1)
	counts := b.counts()
	for name, v := range counts {
		m.set(name, unitOf(name), v)
	}
	probesOK := true
	if err := b.layers(tr, ps, m); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		probesOK = false
	}
	n, ok := b.ops(), ps.ok
	meta["samples"] = map[string]int{"op_latency": n, "spans": len(tr.spans)}
	meta["timed_wall_s"] = ps.wall.Seconds()
	meta["traced_wall_s"] = walls[1].Seconds() / 2
	meta["untraced_wall_s"] = walls[0].Seconds()
	meta["counts"] = counts
	return outcome{
		res:  result{Correct: ok == n && ps.errors == 0 && probesOK, Attempted: n, Failed: n - ok, Metrics: m},
		meta: meta,
	}, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-sweep or dedup-wide")
	seed := flag.Int64("seed", defaultSeed, "workload seed (the op list is a pure function of it)")
	seconds := flag.Int("seconds", 15, "op-list scale: the nominal length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	regen := flag.String("regenerate", "", "rewrite the pinned instance pools into this directory and exit")
	flag.Parse()

	if *regen != "" {
		if err := regenerate(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// Every workload is single-threaded: one solver call, or one request of
	// one closed-loop client, at a time. A second P would add only
	// cross-CPU hand-offs (client, server and collector goroutines waking
	// each other), whose cost on a shared two-vCPU host swings by 15% from
	// run to run; with one P the runs measure the work itself, collector
	// included.
	runtime.GOMAXPROCS(1)
	out, err := runWorkload(*w, config{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	// The host probe runs after the measurement so it cannot disturb it.
	out.meta["host_probe"] = hostProbe()
	out.meta["rss_peak_reset"] = !peakResetFailed
	if err := out.emit(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints the metadata line and then the result line.
func (o outcome) emit(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"meta": o.meta}); err != nil {
		return err
	}
	return enc.Encode(o.res)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	sort.Strings(out)
	return out
}
