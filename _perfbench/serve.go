package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cpx/internal/coupler"
	"cpx/internal/perfmodel"
	"cpx/internal/serve"
)

// serve-mixed drives a serve.New server (default options plus a disk
// tier) over loopback with an open-loop schedule from this process,
// through at most two connections.

// Offered load. On a 2-core host the highest ladder rate that met the
// SLO was 40 or 48 requests/s, and nominalRate is about a quarter of
// it: one block of 40 requests every 4 s, so a 20 s window holds 200. The ladder brackets that
// capacity for the SLO search of the traced run. The latency limit
// applies to the tail latency of a ladder phase and is about twice the
// slowest miss, so one slow miss alone never fails a phase.
const (
	nominalRate    = 10.0
	ladderPhase    = 5 * time.Second
	sloLimit       = 1 * time.Second
	clientTimeout  = 30 * time.Second
	maxConnections = 2
)

var ladderRates = []float64{16, 24, 32, 40, 48, 64}

// loadPhaseNames are the generator phases with their own tallies.
func loadPhaseNames() []string {
	names := []string{"warm", "nominal"}
	for _, r := range ladderRates {
		names = append(names, fmt.Sprintf("r%g", r))
	}
	return names
}

// Request kinds.
const (
	kindHit = iota
	kindMiss
	kindAllocate
	kindSweep
)

// block is the traffic pattern the generator repeats: in every 40
// requests, 30 repeats of earlier scenarios, 4 new scenarios, 2
// allocations and 4 sweeps. No recorded cpxserve traffic exists, so
// these shares are an assumption of the benchmark, not a measurement.
// The order is fixed so that every seed offers the same interleaving;
// the seed picks the scenarios, the repeats and the allocation inputs.
var block = []int{
	kindHit, kindMiss, kindHit, kindHit, kindSweep, kindHit, kindHit, kindAllocate, kindHit, kindHit,
	kindHit, kindMiss, kindHit, kindHit, kindSweep, kindHit, kindHit, kindHit, kindHit, kindHit,
	kindHit, kindMiss, kindHit, kindHit, kindSweep, kindHit, kindHit, kindAllocate, kindHit, kindHit,
	kindHit, kindHit, kindMiss, kindHit, kindSweep, kindHit, kindHit, kindHit, kindHit, kindHit,
}

// simTemplate is the scenario every simulate request and sweep point
// runs with its own seed offset and density steps: a small MG-CFD pair
// coupled by a sliding plane, about 8 ms of host time per density step
// after a fixed start-up cost.
const simTemplate = `{"densitySteps": 3, "rotationPerStep": 0.002, "instances": [
  {"name": "rowA", "kind": "mgcfd", "meshCells": 20000, "ranks": 4, "seed": 1},
  {"name": "rowB", "kind": "mgcfd", "meshCells": 200000, "ranks": 4, "seed": 2}],
 "units": [{"name": "cu", "a": 0, "b": 1, "kind": "sliding", "points": 5000, "ranks": 2, "search": "prefetch"}]}`

// missSteps are the density steps of a block's four misses, in block
// order: about 480, 40, 130 and 130 ms of host time on a 2-core host,
// spanning the 20-500 ms a miss may take. Like the kinds, the sizes sit
// at fixed places in the block, so every seed offers the same work at
// the same times. Warm-up scenarios and sweep points use smallSteps: a
// sweep has one template, so its repeated points must share its size.
var missSteps = []int{60, 3, 15, 15}

const smallSteps = 3

const (
	// warmScenarios is how many scenarios the warm phase computes.
	warmScenarios = 16
	// A sweep repeats sweepRepeats earlier scenarios and adds sweepNew.
	sweepRepeats = 15
	sweepNew     = 1
)

// request is one generated request.
type request struct {
	kind  int
	path  string
	body  []byte
	off   int64          // simulate seed offset
	offs  []int64        // sweep seed offsets
	alloc *allocateCheck // allocate
}

// allocateCheck keeps an allocate request and its response for the
// direct re-check after the window.
type allocateCheck struct {
	req  serve.AllocateRequest
	resp *serve.AllocateResponse
}

// outcome is one finished request.
type outcome struct {
	phase   string
	class   string // simulate_hit, simulate_miss, allocate, sweep
	latency float64
	service float64
	lag     float64
	ok      bool
	refused bool
	// overload: no 2xx response arrived (transport error, time-out or
	// an error status), as opposed to a response that failed its check.
	overload bool
}

// loadGen generates the seed's request stream and checks every
// response.
type loadGen struct {
	b      *bench
	rng    *rand.Rand
	client *http.Client
	url    string

	// Touched by the generator goroutine only.
	sent      int
	nextOff   int64
	requested []int64       // seed offsets requested so far
	small     []int64       // those of the smallest size, for sweeps
	settled   [2]int        // lengths of both before the current block
	steps     map[int64]int // density steps per seed offset
	misses    int           // misses generated so far

	mu        sync.Mutex
	template  serve.SimSpec
	artifacts map[int64][]byte // first artifact served per seed offset
	allocs    []*allocateCheck
	results   []outcome
	failures  []string
}

func newLoadGen(b *bench) (*loadGen, error) {
	g := &loadGen{
		b:         b,
		rng:       rand.New(rand.NewSource(b.seed)),
		nextOff:   1_000_000 * (b.seed%1000 + 1),
		steps:     map[int64]int{},
		artifacts: map[int64][]byte{},
		client: &http.Client{Timeout: clientTimeout, Transport: &http.Transport{
			MaxConnsPerHost: maxConnections, MaxIdleConnsPerHost: maxConnections,
		}},
	}
	if err := json.Unmarshal([]byte(simTemplate), &g.template); err != nil {
		return nil, fmt.Errorf("scenario template: %w", err)
	}
	return g, nil
}

// newOffset returns a seed offset no earlier request used, for a
// scenario of the given density steps.
func (g *loadGen) newOffset(steps int) int64 {
	g.nextOff++
	g.requested = append(g.requested, g.nextOff)
	if steps == smallSteps {
		g.small = append(g.small, g.nextOff)
	}
	g.steps[g.nextOff] = steps
	return g.nextOff
}

// spec is the template at the given density steps.
func (g *loadGen) spec(steps int) serve.SimSpec {
	sp := g.template
	sp.DensitySteps = steps
	return sp
}

func (g *loadGen) simulate(kind int, off int64) request {
	body, _ := json.Marshal(serve.SimulateRequest{SimSpec: g.spec(g.steps[off]), SeedOffset: off})
	return request{kind: kind, path: "/v1/simulate", body: body, off: off}
}

// next returns the next request of the stream. The stream depends only
// on the seed, never on timing or responses. Repeats draw only from
// scenarios first requested before the current block, at least 4 s
// earlier at the nominal rate, so they find a finished artifact: a
// repeat of a scenario still being computed would wait for it.
func (g *loadGen) next() request {
	if g.sent%len(block) == 0 {
		g.settled = [2]int{len(g.requested), len(g.small)}
	}
	kind := block[g.sent%len(block)]
	g.sent++
	switch kind {
	case kindHit:
		return g.simulate(kind, g.requested[g.rng.Intn(g.settled[0])])
	case kindMiss:
		g.misses++
		return g.simulate(kind, g.newOffset(missSteps[(g.misses-1)%len(missSteps)]))
	case kindAllocate:
		chk := &allocateCheck{req: g.allocateRequest()}
		body, _ := json.Marshal(chk.req)
		return request{kind: kind, path: "/v1/allocate", body: body, alloc: chk}
	default:
		var offs []int64
		for _, i := range g.rng.Perm(g.settled[1])[:min(sweepRepeats, g.settled[1])] {
			offs = append(offs, g.small[i])
		}
		for range sweepNew {
			offs = append(offs, g.newOffset(smallSteps))
		}
		body, _ := json.Marshal(serve.SweepRequest{
			Template: serve.SimulateRequest{SimSpec: g.spec(smallSteps)},
			Axes:     serve.SweepAxes{SeedOffsets: offs},
		})
		return request{kind: kind, path: "/v1/sweep", body: body, offs: offs}
	}
}

// allocateRequest is a paper-scale Algorithm 1 request: 16 application
// instances and 4 coupling units with PE samples from perturbed curves,
// on a 40,000-core budget. The perturbation makes every body distinct,
// so allocate requests always compute.
func (g *loadGen) allocateRequest() serve.AllocateRequest {
	req := serve.AllocateRequest{Budget: 40_000}
	for i := range 20 {
		isCU := i >= 16
		base := 20 + 380*g.rng.Float64()
		p50 := 2000 + 8000*g.rng.Float64()
		if isCU {
			base, p50 = 0.2+0.6*g.rng.Float64(), 100+200*g.rng.Float64()
		}
		truth := perfmodel.Curve{BaseCores: 100, BaseTime: base, P50: p50, K: 1.3}
		cs := serve.ComponentSpec{Name: fmt.Sprintf("component %02d", i), IsCU: isCU}
		if !isCU {
			cs.MinRanks = 100
		}
		for _, p := range []int{100, 200, 400, 800, 1600, 3200} {
			cs.Samples = append(cs.Samples, serve.SampleSpec{Cores: p, Runtime: truth.Runtime(float64(p))})
		}
		req.Components = append(req.Components, cs)
	}
	return req
}

func (g *loadGen) fail(format string, args ...any) {
	g.mu.Lock()
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
	g.mu.Unlock()
}

// remember checks a simulate artifact against the first one seen for
// its scenario: every hit must be byte-identical to the miss that
// produced it.
func (g *loadGen) remember(off int64, body []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.artifacts[off]; ok {
		if !bytes.Equal(prev, body) {
			return fmt.Errorf("seed offset %d: artifact differs from the first one served", off)
		}
		return nil
	}
	g.artifacts[off] = body
	return nil
}

// validSimulate checks a simulate artifact's invariants.
func validSimulate(body []byte) error {
	var resp serve.SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("simulate response: %w", err)
	}
	times := []float64{resp.Elapsed}
	for _, c := range append(resp.Instances, resp.Units...) {
		times = append(times, c.Time)
	}
	return positive("simulate times", times...)
}

// do sends one request and checks its response. due is when the
// schedule wanted it sent; dispatched is when the generator sent it.
func (g *loadGen) do(phase string, r request, due, dispatched time.Time, parent int) outcome {
	id := g.b.rec.begin(parent, "serve", r.path)
	rep, err := g.exchange(r)
	g.b.rec.end(id, 0)
	o := outcome{
		phase: phase, class: rep.class, ok: err == nil,
		latency: rep.done.Sub(due).Seconds(), service: rep.done.Sub(dispatched).Seconds(), lag: dispatched.Sub(due).Seconds(),
		refused: rep.status == http.StatusTooManyRequests, overload: rep.status != http.StatusOK,
	}
	if err != nil {
		g.fail("%s %s: %v", phase, r.path, err)
	}
	g.mu.Lock()
	g.results = append(g.results, o)
	g.mu.Unlock()
	return o
}

// reply is what exchange learned of a response.
type reply struct {
	class  string    // latency class
	status int       // HTTP status, 0 if no response arrived
	done   time.Time // when the response was read or the request failed
}

// exchange performs the HTTP round trip and then the response checks,
// which take no part in the request's latency.
func (g *loadGen) exchange(r request) (rep reply, err error) {
	switch r.kind {
	case kindAllocate:
		rep.class = "allocate"
	case kindSweep:
		rep.class = "sweep"
	default:
		rep.class = "simulate_miss"
	}
	resp, err := g.client.Post(g.url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		rep.done = time.Now()
		return rep, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	rep.done = time.Now()
	if err != nil {
		return rep, err
	}
	rep.status = resp.StatusCode
	if rep.status != http.StatusOK {
		return rep, fmt.Errorf("HTTP status %d", rep.status)
	}
	switch r.kind {
	case kindAllocate:
		var ar serve.AllocateResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			return rep, fmt.Errorf("allocate response: %w", err)
		}
		r.alloc.resp = &ar
		g.mu.Lock()
		g.allocs = append(g.allocs, r.alloc)
		g.mu.Unlock()
		return rep, nil
	case kindSweep:
		return rep, g.checkSweep(r, body)
	}
	if w := serve.CacheOutcome(resp.Header.Get("X-Cache")); w == serve.OutcomeHit || w == serve.OutcomeDisk {
		rep.class = "simulate_hit"
	}
	if err := validSimulate(body); err != nil {
		return rep, err
	}
	return rep, g.remember(r.off, body)
}

// checkSweep parses the NDJSON stream: every point must succeed and be
// byte-identical to the /v1/simulate artifact of the same scenario.
func (g *loadGen) checkSweep(r request, body []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	points := 0
	var done *struct {
		Points, OK, Errors int
	}
	for sc.Scan() {
		var line struct {
			Index  *int             `json:"index"`
			Point  serve.SweepPoint `json:"point"`
			Result json.RawMessage  `json:"result"`
			Error  string           `json:"error"`
			Done   *struct {
				Points int `json:"points"`
				OK     int `json:"ok"`
				Errors int `json:"errors"`
			} `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("sweep line: %w", err)
		}
		switch {
		case line.Done != nil:
			done = &struct{ Points, OK, Errors int }{line.Done.Points, line.Done.OK, line.Done.Errors}
		case line.Index != nil:
			if line.Error != "" {
				return fmt.Errorf("sweep point %d: %s", *line.Index, line.Error)
			}
			if line.Point.SeedOffset == nil || *line.Index < 0 || *line.Index >= len(r.offs) ||
				*line.Point.SeedOffset != r.offs[*line.Index] {
				return fmt.Errorf("sweep point %d: wrong seed offset", *line.Index)
			}
			if err := validSimulate(line.Result); err != nil {
				return err
			}
			if err := g.remember(*line.Point.SeedOffset, []byte(line.Result)); err != nil {
				return err
			}
			points++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if done == nil || done.Points != len(r.offs) || done.OK != len(r.offs) || points != len(r.offs) {
		return fmt.Errorf("sweep: %d of %d points answered", points, len(r.offs))
	}
	return nil
}

// phase offers requests at rate for dur, open loop: request i is due at
// start + i/rate whether or not earlier ones have finished, and its
// latency runs from when it was due.
func (g *loadGen) phase(name string, rate float64, dur time.Duration) []outcome {
	root := g.b.rec.begin(0, "loadgen", name)
	defer g.b.rec.end(root, 0)
	n := int(math.Round(rate * dur.Seconds()))
	out := make([]outcome, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range n {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		r := g.next() // before the sleep, so building it adds no lag
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, dispatched time.Time) {
			defer wg.Done()
			out[i] = g.do(name, r, due, dispatched, root)
		}(i, time.Now())
	}
	wg.Wait()
	return out
}

// warm sends the warm-up scenarios one at a time, so the measured
// phases start with hits to draw on.
func (g *loadGen) warm(offs []int64) {
	root := g.b.rec.begin(0, "loadgen", "warm")
	defer g.b.rec.end(root, 0)
	for _, off := range offs {
		t := time.Now()
		g.do("warm", g.simulate(kindMiss, off), t, t, root)
	}
}

// server is one serve.New server on a loopback listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(cacheDir string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(serve.Options{CacheDir: cacheDir}), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for it, and drains the pool.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), clientTimeout)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

// scrape reads the server's Prometheus counters.
func (g *loadGen) scrape() (map[string]float64, error) {
	resp, err := g.client.Get(g.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

func runServe(b *bench) error {
	tmp := filepath.Join(b.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	g, err := newLoadGen(b)
	if err != nil {
		return err
	}
	defer g.client.CloseIdleConnections()

	// Set-up: each repetition starts a server on a fresh disk tier and
	// computes the warm scenarios; the measured server then restarts on
	// the last tier, so its first repeats of warm scenarios are verified
	// disk reads.
	var warmOffs []int64
	for range warmScenarios {
		warmOffs = append(warmOffs, g.newOffset(smallSteps))
	}
	var setups []float64
	var cacheDir string
	for i := range setupReps {
		t := time.Now()
		cacheDir = filepath.Join(dir, fmt.Sprint("tier", i))
		s, err := startServer(cacheDir)
		if err != nil {
			return err
		}
		g.url = s.url
		g.warm(warmOffs)
		if err := s.stop(); err != nil {
			return err
		}
		g.client.CloseIdleConnections()
		setups = append(setups, time.Since(t).Seconds())
	}
	s, err := startServer(cacheDir)
	if err != nil {
		return err
	}
	g.url = s.url

	extra := map[string]float64{}
	var nominal []outcome
	var wall float64
	if !b.traceRun {
		t := time.Now()
		nominal = g.phase("nominal", nominalRate, b.window)
		wall = time.Since(t).Seconds()
	} else {
		untraced := g.phase("nominal", nominalRate, b.window/2)
		b.startTrace()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		traced := g.phase("nominal", nominalRate, b.window/2)
		pprof.StopCPUProfile()
		extra["trace.overhead_pct"] = 100 * (median(services(traced)) - median(services(untraced))) / median(services(untraced))
		cpu, err := cpuSelfByModule(prof.Bytes())
		if err != nil {
			return err
		}
		for m, v := range cpu {
			extra["cpu_self_s."+m] = v
		}
		for _, rate := range ladderRates {
			out := g.phase(fmt.Sprintf("r%g", rate), rate, ladderPhase)
			if !meetsSLO(out, ladderPhase) {
				break
			}
			extra["serve.slo_rate_rps"] = rate
		}
	}

	counters, scrapeErr := g.scrape()
	if err := s.stop(); err != nil {
		return err
	}
	if scrapeErr != nil {
		return fmt.Errorf("scraping /metrics: %w", scrapeErr)
	}

	// Outside the timed window: re-check allocations and a sample of
	// simulate artifacts against direct calls of the same inputs.
	g.recheck()

	// The SLO ladder (phases r<rate>) probes overload: its requests
	// that got no 2xx response (refusals, time-outs) count only in its
	// phase tallies and in meetsSLO. A 2xx response that fails its
	// check is a wrong output in any phase.
	for _, o := range g.results {
		if o.overload && strings.HasPrefix(o.phase, "r") {
			continue
		}
		b.attempted++
		if !o.ok {
			b.failed++
		}
	}
	for _, f := range g.failures {
		fmt.Fprintln(os.Stderr, "perfbench: serve-mixed:", f)
	}
	g.serveLayerMetrics(extra, counters)
	if !b.traceRun {
		// wall_s is the host wall time of the nominal phase, up to its
		// last response: the schedule sets most of it, and it grows
		// when the server falls behind.
		var lat []float64
		for _, o := range nominal {
			lat = append(lat, o.latency)
		}
		b.endToEnd(setups, []float64{wall}, lat)
		return nil
	}
	b.layerMetrics(extra)
	return nil
}

func services(out []outcome) []float64 {
	var s []float64
	for _, o := range out {
		s = append(s, o.service)
	}
	return s
}

// meetsSLO reports whether a ladder phase kept its tail latency within
// the limit, failed nothing, and drained: the last response arrived no
// later than the limit after the schedule ended.
func meetsSLO(out []outcome, dur time.Duration) bool {
	var lat []float64
	last := 0.0
	for i, o := range out {
		if !o.ok {
			return false
		}
		lat = append(lat, o.latency)
		due := float64(i) / (float64(len(out)) / dur.Seconds())
		last = max(last, due+o.latency)
	}
	_, tail := tailPercentile(lat)
	return tail <= sloLimit.Seconds() && last <= dur.Seconds()+sloLimit.Seconds()
}

// recheckPerSize sets the sample of served simulate artifacts re-run
// directly after the window: for each miss size, that many evenly
// spaced in seed offset order.
const recheckPerSize = 2

// recheck compares every allocate response with a direct
// perfmodel.Allocate of the same components, and a sample of simulate
// artifacts with a direct coupler.Simulation.Run of the same scenario.
// Each comparison counts as an operation.
func (g *loadGen) recheck() {
	b := g.b
	root := b.rec.begin(0, "bench", "recheck")
	defer b.rec.end(root, 0)
	for _, chk := range g.allocs {
		b.op(g.recheckAllocate(root, chk))
	}
	bySize := map[int][]int64{}
	g.mu.Lock()
	for off := range g.artifacts {
		bySize[g.steps[off]] = append(bySize[g.steps[off]], off)
	}
	g.mu.Unlock()
	for _, offs := range bySize {
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		for i := 0; i < len(offs); i += max(1, len(offs)/recheckPerSize) {
			b.op(g.recheckSimulate(root, offs[i]))
		}
	}
}

func (g *loadGen) recheckAllocate(root int, chk *allocateCheck) error {
	comps, err := serve.BuildComponents(chk.req.Components)
	if err != nil {
		return err
	}
	var alloc *perfmodel.Allocation
	err = g.b.call(root, "perfmodel", "Allocate", 0, func() (err error) {
		alloc, err = perfmodel.Allocate(comps, chk.req.Budget)
		return err
	})
	if err != nil {
		return err
	}
	r := chk.resp
	if len(r.Components) != len(alloc.Cores) || math.Float64bits(r.Predicted) != math.Float64bits(alloc.Predicted) {
		return fmt.Errorf("allocate: served prediction %v, direct %v", r.Predicted, alloc.Predicted)
	}
	total := 0
	for i, c := range r.Components {
		total += c.Cores
		if c.Cores != alloc.Cores[i] || math.Float64bits(c.Time) != math.Float64bits(alloc.Times[i]) {
			return fmt.Errorf("allocate: component %d served %d cores / %v s, direct %d / %v",
				i, c.Cores, c.Time, alloc.Cores[i], alloc.Times[i])
		}
	}
	if total > chk.req.Budget {
		return fmt.Errorf("allocate: %d cores of a %d budget", total, chk.req.Budget)
	}
	return nil
}

func (g *loadGen) recheckSimulate(root int, off int64) error {
	g.mu.Lock()
	body := g.artifacts[off]
	g.mu.Unlock()
	spec := g.spec(g.steps[off])
	var served serve.SimulateResponse
	if err := json.Unmarshal(body, &served); err != nil {
		return err
	}
	spec.Instances = append([]serve.InstanceSpec(nil), spec.Instances...)
	spec.ApplySeed(off)
	sim, err := spec.Build()
	if err != nil {
		return err
	}
	var rep *coupler.Report
	err = g.b.call(root, "coupler", "Simulation.Run", sim.TotalRanks(), func() (err error) {
		rep, err = sim.Run(g.b.mpiConfig())
		return err
	})
	if err != nil {
		return err
	}
	g.b.noteCoupled(rep)
	same := math.Float64bits(served.Elapsed) == math.Float64bits(rep.Elapsed) &&
		math.Float64bits(served.CouplingShare) == math.Float64bits(rep.CouplingShare) &&
		served.Ranks == sim.TotalRanks() && served.DensitySteps == rep.DensitySteps &&
		len(served.Instances) == len(rep.InstanceTime) && len(served.Units) == len(rep.UnitTime)
	for i := 0; same && i < len(rep.InstanceTime); i++ {
		same = math.Float64bits(served.Instances[i].Time) == math.Float64bits(rep.InstanceTime[i])
	}
	for u := 0; same && u < len(rep.UnitTime); u++ {
		same = math.Float64bits(served.Units[u].Time) == math.Float64bits(rep.UnitTime[u])
	}
	if !same {
		return fmt.Errorf("seed offset %d: served artifact differs from a direct run", off)
	}
	return nil
}

// serveLayerMetrics fills the serve and loadgen per-layer metrics and
// prints the generator's per-phase accounting.
func (g *loadGen) serveLayerMetrics(extra, counters map[string]float64) {
	byClass := map[string][]float64{}
	var lags []float64
	hits, sims := 0.0, 0.0
	tally := map[string]float64{}
	for _, o := range g.results {
		tally[o.phase+".sent"]++
		tally["sent"]++
		if o.ok {
			tally[o.phase+".ok"]++
			tally["ok"]++
			if o.phase == "nominal" {
				byClass[o.class] = append(byClass[o.class], o.latency)
			}
		} else {
			tally[o.phase+".failed"]++
			tally["failed"]++
		}
		if o.refused {
			extra["serve.refused"]++
		}
		if o.phase != "warm" {
			lags = append(lags, o.lag)
		}
		if strings.HasPrefix(o.class, "simulate") && o.ok {
			sims++
			if o.class == "simulate_hit" {
				hits++
			}
		}
	}
	for k, v := range tally {
		extra["loadgen."+k] = v
	}
	extra["loadgen.lag_p99_ms"] = 1000 * quantile(lags, 0.99)
	for _, c := range []string{"simulate_hit", "simulate_miss", "allocate", "sweep"} {
		extra["serve."+c+".p50_ms"] = 1000 * median(byClass[c])
		fmt.Printf("nominal %-14s n=%3d p50 %8.3f ms p90 %8.3f ms\n", c, len(byClass[c]),
			1000*median(byClass[c]), 1000*quantile(byClass[c], 0.9))
	}
	if sims > 0 {
		extra["serve.cache_hit_ratio"] = hits / sims
	}
	extra["serve.disk_puts"] = counters["cpxserve_disk_artifacts_written_total"]
	extra["serve.disk_hits"] = counters["cpxserve_disk_reads_verified_total"]
	extra["serve.cache_evictions"] = counters["cpxserve_cache_evictions_total"]
	for _, ph := range loadPhaseNames() {
		fmt.Printf("loadgen phase %-8s sent %4.0f ok %4.0f failed %4.0f\n", ph,
			tally[ph+".sent"], tally[ph+".ok"], tally[ph+".failed"])
	}
	fmt.Printf("loadgen lag p99 %.3f ms\n", extra["loadgen.lag_p99_ms"])
}
