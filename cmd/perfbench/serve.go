package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/taskgraph"
)

// The request-path probe replays /v1/solve requests from one closed-loop
// client against an in-process server: per 5 requests, 3 exact repeats of
// the hot set, 1 relabeled isomorph of a hot graph and 1 fresh graph, in a
// seeded order; --seconds × serveOpsPerSecond requests. It runs in
// paper-sweep's traced pass rather than as a workload of its own (see
// README.md).
const (
	hotGraphs         = 64
	serveOpsPerSecond = 200
	// serveWarmMisses fresh graphs, outside the op list, warm the miss
	// path during set-up.
	serveWarmMisses = 32
)

// serveShape is the request graphs' shape: §4.1 graphs scaled down to
// 9–11 tasks over 6–8 levels. DF search over at most 3^11 leaves stays
// cheap on every graph (at most about 14 ms over 6000 draws), whereas a
// few full-size §4.1 graphs take DF hundreds of milliseconds, and one of
// those would decide a run's throughput and peak memory.
func serveShape() gen.Params {
	p := gen.Defaults()
	p.NMin, p.NMax = 9, 11
	p.DepthMin, p.DepthMax = 6, 8
	return p
}

type reqClass int

const (
	classHit reqClass = iota
	classRelabel
	classMiss
)

var classNames = [...]string{"hit", "relabel", "miss"}

// request is one prepared /v1/solve call and what it must return.
type request struct {
	class reqClass
	hot   int // hot-set index for hit and relabel, -1 for miss
	body  []byte
	want  taskgraph.Time // the Lmax the server must return; a miss gets it when verified
}

type response struct {
	status int
	cache  string
	body   []byte
	err    error
}

type serveBench struct {
	plat     platform.Platform
	rng      *rand.Rand
	hot      []request
	hotGraph []*taskgraph.Graph
	hotResp  [][]byte // a response body for each hot graph
	list     []request
	out      []response
	srv      *server.Server
	hs       *http.Server
	served   chan error
	client   *http.Client
	url      string
	solves   int64 // Server.Metrics().Solves before the timed phase
}

// solveBody encodes a /v1/solve request: the graph on procs processors
// with depth-first branching, so a miss costs one cheap solve.
func solveBody(g *taskgraph.Graph) ([]byte, error) {
	return json.Marshal(server.SolveRequest{
		GraphRequest: server.GraphRequest{Graph: g, Procs: procs},
		Branch:       "df",
	})
}

func newRequest(class reqClass, g *taskgraph.Graph, hot int, want taskgraph.Time) (request, error) {
	body, err := solveBody(g)
	return request{class: class, hot: hot, body: body, want: want}, err
}

// fresh generates a request graph from a generator seed drawn from the
// workload seed, so every graph of one op list is distinct and another
// seed gives other graphs.
func (b *serveBench) fresh() (*taskgraph.Graph, error) {
	p := serveShape()
	g := gen.New(p, b.rng.Int63()).Graph()
	return g, deadline.Assign(g, p.Laxity, deadline.EqualSlack)
}

// solveDF is the server's solve of g, run in-process: DF branching on the
// canonical graph. Its Lmax is the answer the server must return.
func (b *serveBench) solveDF(g *taskgraph.Graph, tr *tracer) (taskgraph.Time, error) {
	canon, _, err := g.Canonical()
	if err != nil {
		return 0, err
	}
	sp := tr.begin("core.Solve df")
	r, err := core.Solve(canon, b.plat, core.Params{Branching: core.BranchDF})
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if r.Schedule == nil {
		return 0, fmt.Errorf("DF found no schedule")
	}
	return r.Cost, nil
}

// serveProbe sets up a request replay, runs it once traced, and adds the
// per-class latencies, the directly timed request stages and the replay's
// counts to m.
func serveProbe(cfg config, tr *tracer, m metricSet) error {
	b, err := setupServe(config{seed: cfg.seed, ops: cfg.opCount(serveOpsPerSecond)})
	if err != nil {
		return err
	}
	defer b.close()
	ps := timed(b, tr)
	for name, v := range b.counts() {
		m.set(name, unitOf(name), v)
	}
	if err := b.layers(tr, ps, m); err != nil {
		return err
	}
	if ps.ok != b.ops() || ps.errors != 0 {
		return fmt.Errorf("%d of %d requests failed verification", b.ops()-ps.ok, b.ops())
	}
	return nil
}

func setupServe(cfg config) (*serveBench, error) {
	b := &serveBench{plat: platform.New(procs), rng: rand.New(rand.NewSource(cfg.seed))}
	rng := b.rng
	for i := 0; i < hotGraphs; i++ {
		g, err := b.fresh()
		if err != nil {
			return nil, err
		}
		cost, err := b.solveDF(g, nil)
		if err != nil {
			return nil, err
		}
		r, err := newRequest(classHit, g, i, cost)
		if err != nil {
			return nil, err
		}
		b.hot = append(b.hot, r)
		b.hotGraph = append(b.hotGraph, g)
	}
	n := max(5, cfg.opCount(serveOpsPerSecond)/5*5)
	classes := make([]reqClass, n)
	for i := range classes {
		classes[i] = []reqClass{classHit, classHit, classHit, classRelabel, classMiss}[i%5]
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	for _, c := range classes {
		var r request
		var err error
		switch c {
		case classHit:
			r = b.hot[rng.Intn(hotGraphs)]
		case classRelabel:
			h := rng.Intn(hotGraphs)
			g, perr := relabel(b.hotGraph[h], rng)
			if perr != nil {
				return nil, perr
			}
			r, err = newRequest(classRelabel, g, h, b.hot[h].want)
		case classMiss:
			g, gerr := b.fresh()
			if gerr != nil {
				return nil, gerr
			}
			// A miss's answer is computed when it is verified.
			r, err = newRequest(classMiss, g, -1, 0)
		}
		if err != nil {
			return nil, err
		}
		b.list = append(b.list, r)
	}
	b.out = make([]response, n)

	if err := b.start(len(b.hot) + n + serveWarmMisses); err != nil {
		return nil, err
	}
	// Pre-fill the hot set (cache writes), then warm up: one hit per hot
	// graph and serveWarmMisses misses on graphs outside the op list.
	for i, r := range b.hot {
		if resp := b.post(r.body); resp.err != nil || resp.status != http.StatusOK || resp.cache != "miss" {
			b.close()
			return nil, fmt.Errorf("pre-fill hot graph %d: status %d cache %q err %v", i, resp.status, resp.cache, resp.err)
		}
	}
	for i, r := range b.hot {
		resp := b.post(r.body)
		if resp.err != nil || resp.cache != "hit" {
			b.close()
			return nil, fmt.Errorf("warm-up hot graph %d: cache %q err %v", i, resp.cache, resp.err)
		}
		b.hotResp = append(b.hotResp, resp.body)
	}
	for i := 0; i < serveWarmMisses; i++ {
		g, err := b.fresh()
		if err == nil {
			var body []byte
			if body, err = solveBody(g); err == nil {
				err = b.post(body).err
			}
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up miss %d: %w", i, err)
		}
	}
	b.solves = b.srv.Metrics().Solves
	return b, nil
}

// relabel returns an isomorphic copy of g under a random task numbering.
func relabel(g *taskgraph.Graph, rng *rand.Rand) (*taskgraph.Graph, error) {
	perm := make([]taskgraph.TaskID, g.NumTasks())
	for i, p := range rng.Perm(len(perm)) {
		perm[i] = taskgraph.TaskID(p)
	}
	return taskgraph.Relabel(g, perm)
}

// start serves an in-process server.Server over an in-memory listener and
// opens one keep-alive client connection to it. Requests and responses
// cross the full HTTP/1.1 client and server stacks as bytes; only the
// kernel's loopback is left out, whose system calls made a request's
// latency on a shared virtual machine swing by half from run to run.
func (b *serveBench) start(keys int) error {
	b.srv = server.New(server.Config{
		Workers: runtime.NumCPU(),
		// Room for every key of the op list twice over, so no hot entry is
		// ever evicted and every class is what the op list says.
		CacheEntries: 2 * keys,
	})
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.url = "http://perfbench/v1/solve"
	b.client = &http.Client{Transport: &http.Transport{
		DialContext:         ln.dial,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return nil
}

// pipeListener is a net.Listener whose connections are net.Pipe pairs:
// dial hands one end to Accept and returns the other.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "perfbench" }

func (b *serveBench) post(body []byte) response {
	resp, err := b.client.Post(b.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to the end; a close error changes nothing
	return response{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: data, err: err}
}

func (b *serveBench) ops() int { return len(b.list) }
func (b *serveBench) settle()  {}

func (b *serveBench) run(i int, tr *tracer) error {
	sp := tr.begin("server.POST /v1/solve " + classNames[b.list[i].class])
	b.out[i] = b.post(b.list[i].body)
	tr.end(sp)
	return b.out[i].err
}

func (b *serveBench) close() {
	if b.hs == nil {
		return
	}
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "request-path probe: shutdown:", err)
	}
	if err := <-b.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "request-path probe: serve:", err)
	}
	b.srv.Close()
	b.hs = nil
}

// verify checks status, cache class, cost and schedule of the responses
// to ops [lo, hi), then drops their bodies.
func (b *serveBench) verify(lo, hi int, tr *tracer) int {
	ok := 0
	for i := lo; i < hi; i++ {
		r := b.list[i]
		err := b.verifyOne(i, r, b.out[i], tr)
		b.out[i].body = nil
		if err != nil {
			fmt.Fprintf(os.Stderr, "op %d (%s): %v\n", i, classNames[r.class], err)
			continue
		}
		ok++
	}
	return ok
}

// verifyOne checks one response against the request, with its schedule
// rebuilt on the requester's own graph. A miss's expected answer comes
// from solving its graph in-process now.
func (b *serveBench) verifyOne(i int, r request, o response, tr *tracer) error {
	if r.class == classHit {
		return b.check(r, b.hotGraph[r.hot], o)
	}
	var req server.SolveRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		return err
	}
	if r.class == classMiss {
		want, err := b.solveDF(req.Graph, tr)
		if err != nil {
			return err
		}
		r.want = want
	}
	return b.check(r, req.Graph, o)
}

func (b *serveBench) check(r request, g *taskgraph.Graph, o response) error {
	if o.err != nil {
		return o.err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", o.status, o.body)
	}
	if wantCache := map[reqClass]string{classHit: "hit", classRelabel: "hit", classMiss: "miss"}[r.class]; o.cache != wantCache {
		return fmt.Errorf("X-Cache %q, want %q", o.cache, wantCache)
	}
	var resp server.SolveResponse
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return err
	}
	if !resp.Feasible || resp.Lmax != r.want {
		return fmt.Errorf("lmax %d feasible %v, want %d", resp.Lmax, resp.Feasible, r.want)
	}
	// The schedule must be valid in the requester's own task numbering.
	s := sched.NewSchedule(g, b.plat)
	for _, p := range resp.Schedule {
		if p.Task < 0 || int(p.Task) >= g.NumTasks() || p.Proc < 0 || int(p.Proc) >= procs || s.Placed(p.Task) {
			return fmt.Errorf("bad placement %+v", p)
		}
		s.Set(p.Task, p.Proc, p.Start)
		if s.Finish(p.Task) != p.Finish {
			return fmt.Errorf("task %d finish %d, schedule says %d", p.Task, p.Finish, s.Finish(p.Task))
		}
	}
	if !s.Complete() {
		return fmt.Errorf("schedule places %d of %d tasks", s.NumPlaced(), g.NumTasks())
	}
	if err := s.Check(); err != nil {
		return err
	}
	if s.Lmax() != resp.Lmax {
		return fmt.Errorf("schedule Lmax %d, response says %d", s.Lmax(), resp.Lmax)
	}
	return nil
}

func (b *serveBench) counts() map[string]float64 {
	hits := 0
	for _, o := range b.out {
		if o.cache == "hit" {
			hits++
		}
	}
	return map[string]float64{
		"server.hit_frac": float64(hits) / float64(len(b.out)),
		"server.solves":   float64(b.srv.Metrics().Solves - b.solves),
	}
}

// layers reports per-class request latency and, on the hit class's own
// inputs, the request stages called directly: request decode,
// canonicalization, admission on an idle WFQ and response encode.
func (b *serveBench) layers(tr *tracer, ps phaseStats, m metricSet) error {
	var byClass [3][]float64
	for i, r := range b.list {
		byClass[r.class] = append(byClass[r.class], float64(ps.lat[i])/float64(time.Millisecond))
	}
	m.set("server.hit_ms_p50", "ms", median(byClass[classHit]))
	m.set("server.relabel_ms_p50", "ms", median(byClass[classRelabel]))
	m.set("server.miss_ms_p50", "ms", median(byClass[classMiss]))
	m.set("core.solve_ms.df", "ms", median(ms(tr.durations("core.Solve df"))))

	const reps = 5
	wfq := grid.NewWFQ(grid.WFQConfig{Workers: runtime.NumCPU()})
	var decode, canon, admit, encode []float64
	var failed error
	stage := func(name string, into *[]float64, f func() error) {
		sp := tr.begin(name)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		tr.end(sp)
		if err != nil && failed == nil {
			failed = fmt.Errorf("%s: %w", name, err)
		}
		*into = append(*into, float64(d)/float64(time.Microsecond))
	}
	for _, r := range b.list {
		if r.class != classHit || len(decode) >= reps*hotGraphs {
			continue
		}
		var req server.SolveRequest
		stage("taskgraph.decode", &decode, func() error { return json.Unmarshal(r.body, &req) })
		stage("taskgraph.Canonical", &canon, func() error { _, _, err := req.Graph.Canonical(); return err })
		stage("grid.WFQ.Acquire", &admit, func() error {
			release, err := wfq.Acquire(context.Background(), grid.DefaultTenant)
			if err == nil {
				release()
			}
			return err
		})
		var resp server.SolveResponse
		if err := json.Unmarshal(b.hotResp[r.hot], &resp); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		stage("server.encode", &encode, func() error { _, err := json.Marshal(resp); return err })
	}
	m.set("taskgraph.decode_us", "us", median(decode))
	m.set("taskgraph.canonical_us", "us", median(canon))
	m.set("grid.admit_us", "us", median(admit))
	m.set("server.encode_us", "us", median(encode))
	// Admission (WFQ.Acquire) runs only on the miss path, so the hit
	// residual subtracts decode, canonicalization and encode alone.
	m.set("server.residual_us", "us",
		m["server.hit_ms_p50"].Value*1e3-median(decode)-median(canon)-median(encode))
	return failed
}
