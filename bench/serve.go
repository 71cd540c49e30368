package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/serve"
	"gofmm/internal/telemetry"
	"gofmm/internal/telemetry/live"
	"gofmm/internal/workspace"
)

// Serving setup, as gofmmd -store-dir wires it with its default flags.
const (
	opName        = "main"
	admitConc     = 4
	admitQueue    = 32
	clientConns   = 2                      // keep-alive connections of the generator
	latencyLimit  = 100 * time.Millisecond // tail limit a goodput rung must meet
	drainGrace    = 2 * time.Second        // how long a phase's stragglers may finish
	lateLimit     = 20 * time.Millisecond  // generator lateness that invalidates a run
	swapChunk     = 6 * time.Second        // traffic at the reference rate while the operator is swapped
	swapsPerChunk = 2                      // hot swaps in that traffic, evenly spaced
	minRung       = 3 * time.Second        // shortest phase of the rate ladder
	minRungN      = 100                    // fewest requests a rung sends: a p90 with 10 beyond
	requestBudget = 10 * time.Second       // client timeout per request
)

// ladderStep is the ratio between rungs of the rate ladder. On a shared
// 2-core host the serving capacity moves by a third from run to run, so a
// rung within about 1.5× of it passes in some runs and fails in others;
// steps of 6 around a reference rate of a fifth to a third of capacity
// keep both neighbouring rungs clear of it, at the price of resolution.
const ladderStep = 6

// server is an in-process serve.Server on a loopback port over one
// mmap-loaded operator, plus the HTTP client the generator uses.
type server struct {
	srv        *serve.Server
	reg        *serve.Registry
	lv         *live.Server
	base       string
	client     *http.Client
	evalCancel context.CancelFunc
	n          int
}

// startServer loads the store at path and serves it as operator "main".
func startServer(path string, pool *workspace.Pool) (*server, error) {
	rec := telemetry.New()
	lv := live.New(rec)
	evalCtx, evalCancel := context.WithCancel(context.Background())
	reg := serve.NewRegistry(rec)
	pool.AttachTelemetry(rec)
	lim := serve.Limits{
		Admission: serve.AdmissionConfig{MaxConcurrent: admitConc, MaxQueue: admitQueue, RetryAfter: time.Second},
		Breaker:   serve.BreakerConfig{Threshold: 5, Cooldown: 5 * time.Second},
	}
	batch := core.BatchOptions{}
	h, _, err := core.LoadFrom(path, core.LoadOptions{
		Mmap: true, NumWorkers: workers, Workspace: pool, Telemetry: rec,
	})
	if err != nil {
		evalCancel()
		return nil, err
	}
	if _, err := reg.SwapHierarchical(evalCtx, opName, h, batch, lim); err != nil {
		evalCancel()
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{
		Registry: reg, Telemetry: rec, Live: lv,
		Admin: &serve.AdminConfig{
			StoreDir: filepath.Dir(path), Mmap: true, EvalCtx: evalCtx,
			Batch: batch, Limits: lim, NumWorkers: workers, Workspace: pool,
		},
	})
	if err == nil {
		err = srv.Start("127.0.0.1:0")
	}
	if err != nil {
		reg.Close()
		evalCancel()
		return nil, err
	}
	lv.SetReady(true)
	tr := &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true}
	return &server{
		srv: srv, reg: reg, lv: lv, base: "http://" + srv.Addr(),
		client:     &http.Client{Transport: tr, Timeout: requestBudget},
		evalCancel: evalCancel, n: h.N(),
	}, nil
}

// stop drains and shuts the server down, waiting for its goroutines.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	s.reg.Close()
	s.evalCancel()
	if lerr := s.lv.Shutdown(ctx); err == nil {
		err = lerr
	}
	s.client.CloseIdleConnections()
	return err
}

// payload is one request body and the result the server must return.
type payload struct {
	body []byte
	want *linalg.Matrix
}

func encodeVec(x []float64) []byte {
	b := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// outcome of one request.
type outcome struct {
	status int
	ok     bool // 200 with the expected vector
}

// matvec posts one octet-stream width-1 matvec and checks the answer.
func (s *server) matvec(ctx context.Context, p *payload) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		s.base+"/v1/operators/"+opName+"/matvec", bytes.NewReader(p.body))
	if err != nil {
		return outcome{}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return outcome{}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return outcome{status: resp.StatusCode}
	}
	if len(raw) != 8*s.n {
		return outcome{status: resp.StatusCode}
	}
	got := linalg.NewMatrix(s.n, 1)
	for i := range got.Data {
		got.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	// A coalesced request is answered from a wider replay, whose sums run
	// in another order than the width-1 reference: agree to rounding.
	return outcome{status: resp.StatusCode, ok: relDiff(got, p.want) <= 1e-10}
}

// swap hot-swaps the operator from its store file through the admin API.
func (s *server) swap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/admin/operators/"+opName, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("admin reload: status %d", resp.StatusCode)
	}
	return nil
}

// arrivals returns n seeded arrival offsets in [0, dur): a Poisson process
// conditioned on its count, so every run of a phase offers the same number
// of requests.
func arrivals(rng *rand.Rand, n int, dur time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sender sends one request and reports its outcome.
type sender func(ctx context.Context, p *payload) outcome

// phaseResult is what one open-loop phase observed.
type phaseResult struct {
	rate     float64
	latMS    sample // completion minus due time, good responses only
	lateMS   sample // how late the generator handed each request on
	depthT   []float64
	depth    []float64 // requests due but not yet sent, at each arrival
	sent     int       // requests handed to a connection
	dropped  int       // due but never sent: the phase ended first
	failed   int       // errors, non-200s and wrong answers
	statuses map[int]int
	elapsed  time.Duration // phase start to the last completion
	grew     bool          // the backlog grew (growing, when the phase ended)
}

// add merges the observations of a phase run in chunks.
func (r *phaseResult) add(o *phaseResult) {
	r.latMS = append(r.latMS, o.latMS...)
	r.lateMS = append(r.lateMS, o.lateMS...)
	r.sent += o.sent
	r.dropped += o.dropped
	r.failed += o.failed
	for code, k := range o.statuses {
		r.statuses[code] += k
	}
	r.elapsed += o.elapsed
	r.grew = r.grew || o.grew
}

// goodput is the rate of good responses over the phase.
func (r *phaseResult) goodput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(len(r.latMS)) / r.elapsed.Seconds()
}

// growing reports a backlog that grows over the phase: the queue of due
// but unsent requests rises faster than a twentieth of the offered rate
// and ends non-trivially deep, or requests were never sent at all.
func (r *phaseResult) growing() bool {
	if r.dropped > 0 {
		return true
	}
	if len(r.depth) == 0 {
		return false
	}
	return slope(r.depthT, r.depth) > r.rate/20 && r.depth[len(r.depth)-1] >= 5
}

// passes reports whether the phase meets the goodput rule: no failures, no
// growing backlog, and the tail latency (the highest percentile up to p99
// that the sample supports) within latencyLimit.
func (r *phaseResult) passes() bool {
	if r.failed > 0 || r.grew {
		return false
	}
	for _, q := range tailLadder {
		if q > 0.99 {
			continue
		}
		if v, ok := r.latMS.at(q); ok {
			return v <= ms(latencyLimit)
		}
	}
	return false
}

// openLoop offers the arrival schedule sched (offsets from the phase
// start, at the given rate) from one generator goroutine over conns
// connection workers, and times every request from the moment it was due,
// so time spent waiting for a free connection counts against latency.
// Requests still queued drainGrace after the last arrival are abandoned.
func openLoop(ctx context.Context, send sender, conns int, sched []time.Duration, rate float64,
	loads []*payload, tr *tracer, parent *span) *phaseResult {
	res := &phaseResult{rate: rate, statuses: map[int]int{}}
	root := tr.start("gen.phase", parent, 0)
	defer root.end()

	type job struct {
		due time.Time
		p   *payload
		req int64
	}
	jobs := make(chan job, len(sched)) // sized to the number of sends
	var mu sync.Mutex
	var started atomic.Int64
	var abandon atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if abandon.Load() {
					mu.Lock()
					res.dropped++
					mu.Unlock()
					continue
				}
				started.Add(1)
				tr.record("gen.wait", root, j.req, j.due, time.Now())
				sp := tr.start("serve.http_matvec", root, j.req)
				o := send(ctx, j.p)
				sp.end()
				done := time.Now()
				mu.Lock()
				res.sent++
				res.statuses[o.status]++
				if o.ok {
					res.latMS = append(res.latMS, ms(done.Sub(j.due)))
				} else {
					res.failed++
				}
				res.elapsed = max(res.elapsed, done.Sub(t0))
				mu.Unlock()
			}
		}()
	}

	for i, off := range sched {
		due := t0.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lateMS = append(res.lateMS, ms(time.Since(due)))
		jobs <- job{due: due, p: loads[i%len(loads)], req: tr.newRequest()}
		res.depthT = append(res.depthT, off.Seconds())
		res.depth = append(res.depth, float64(int64(i+1)-started.Load()))
	}
	close(jobs)
	// The backlog that abandoned requests leave already fails the phase.
	grace := time.AfterFunc(drainGrace, func() { abandon.Store(true) })
	wg.Wait()
	grace.Stop()
	res.grew = res.growing()
	return res
}

// serving is the open-loop phase: an in-process server over the last
// cycle's store, the requests with their expected answers, and what the
// reference-rate chunks observed so far.
type serving struct {
	s        *server
	loads    []*payload
	rng      *rand.Rand
	root     *span
	ref      *phaseResult
	swaps    sample
	swapFail int
}

// startServing starts the server and computes, from the in-memory
// operator, the answer every request must get.
func (b *bench) startServing(ctx context.Context, last *built, parent *span) (*serving, error) {
	s, err := startServer(b.storePath, b.pool)
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	sv := &serving{
		s: s, rng: rand.New(rand.NewSource(b.seed + 900)), root: parent,
		ref: &phaseResult{rate: b.w.refRate, statuses: map[int]int{}},
	}
	for _, W := range vectors(s.n, 8, b.seed+400) {
		U, err := last.h.MatvecCtx(ctx, W)
		if err != nil {
			if serr := s.stop(); serr != nil {
				b.logf("stop server: %v", serr)
			}
			return nil, err
		}
		sv.loads = append(sv.loads, &payload{body: encodeVec(W.Col(0)), want: U})
	}
	return sv, nil
}

// phase offers n arrivals at rate over n/rate seconds.
func (b *bench) phase(ctx context.Context, sv *serving, rate float64, n int) *phaseResult {
	dur := time.Duration(float64(n) / rate * float64(time.Second))
	return openLoop(ctx, sv.s.matvec, clientConns, arrivals(sv.rng, n, dur), rate, sv.loads, b.tr, sv.root)
}

// refChunk runs one chunk of n requests of the reference-rate phase.
func (b *bench) refChunk(ctx context.Context, sv *serving, n int) {
	sv.ref.add(b.phase(ctx, sv, b.w.refRate, n))
}

// swapUnderLoad offers swapChunk of traffic at the reference rate and
// hot-swaps the operator from its store file swapsPerChunk times during
// it. Its requests are checked like any other, but their latencies stay
// out of the reference phase: the page faults of a freshly mapped store
// would otherwise set its p99 by how the swaps happen to fall.
func (b *bench) swapUnderLoad(ctx context.Context, sv *serving) *phaseResult {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; k <= swapsPerChunk; k++ {
			time.Sleep(swapChunk / (swapsPerChunk + 1))
			sp := b.tr.start("serve.swap", sv.root, 0)
			t := time.Now()
			err := sv.s.swap(ctx)
			d := time.Since(t)
			sp.end()
			if err != nil {
				b.logf("hot swap: %v", err)
				sv.swapFail++
			} else {
				sv.swaps = append(sv.swaps, ms(d))
			}
		}
	}()
	r := b.phase(ctx, sv, b.w.refRate, int(math.Round(b.w.refRate*swapChunk.Seconds())))
	<-done
	return r
}

// finishServing swaps the operator under load, climbs or descends the
// rate ladder from the reference phase, reports the serving metrics, runs
// the serving probes in traced runs, and stops the server.
func (b *bench) finishServing(ctx context.Context, sv *serving, last *built, v map[string]float64) (err error) {
	defer func() {
		if serr := sv.s.stop(); err == nil && serr != nil {
			err = fmt.Errorf("stop server: %w", serr)
		}
	}()
	ref := sv.ref
	phases := []*phaseResult{ref, b.swapUnderLoad(ctx, sv)}
	v["serve_p50_ms"] = ref.latMS.median()
	v["serve_p99_ms"], _ = ref.latMS.at(0.99)
	v["serve.swap_ms"] = sv.swaps.median()
	late, _ := ref.lateMS.at(0.99)
	v["gen.late_p99_ms"] = late
	b.check(late <= ms(lateLimit), "generator ran late: p99 %.3g ms", late)
	b.check(len(sv.swaps) > 0 && sv.swapFail == 0, "%d of %d hot swaps failed",
		sv.swapFail, sv.swapFail+len(sv.swaps))

	// The reference phase is the ladder's middle rung: climb one rung if
	// it meets the goodput rule, else descend one. Missing the rule is a
	// measurement, not a failed operation.
	rate := b.w.refRate * ladderStep
	if !ref.passes() {
		rate = b.w.refRate / ladderStep
	}
	r := b.phase(ctx, sv, rate, max(minRungN, int(math.Ceil(rate*minRung.Seconds()))))
	phases = append(phases, r)
	var top *phaseResult
	switch {
	case r.passes():
		top = r
	case ref.passes():
		top = ref
	}
	goodput := 0.0
	if top != nil {
		goodput = top.goodput()
	}
	v["goodput_rps"] = goodput

	var sent, failed, other int
	for _, p := range phases {
		sent += p.sent
		failed += p.failed
		for code, k := range p.statuses {
			if code != http.StatusOK && code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
				other += k
			}
		}
		v["serve.status_429"] += float64(p.statuses[http.StatusTooManyRequests])
		v["serve.status_503"] += float64(p.statuses[http.StatusServiceUnavailable])
	}
	b.tally(sent, failed)
	v["serve.status_other"] = float64(other)
	v["gen.sent"] = float64(sent)
	fmt.Printf("serve: reference %g/s, %d samples (p50 %.4g ms, p99 %.4g ms, %d swaps); ladder", b.w.refRate,
		len(ref.latMS), v["serve_p50_ms"], v["serve_p99_ms"], len(sv.swaps))
	for _, p := range phases[2:] {
		q, t, _ := p.latMS.tail()
		fmt.Printf(" %.4g/s: p%g %.4g ms n=%d backlog=%v;", p.rate, q*100, t, len(p.latMS), p.grew)
	}
	fmt.Printf(" goodput %.4g/s\n", goodput)

	if b.traced {
		return b.serveProbes(ctx, sv.s, last, v, sv.root)
	}
	return nil
}
