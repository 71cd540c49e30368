package main

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{100, 0.90, true},
		{99, 0.90, false},
		{20, 0.50, true},
		{19, 0.50, false},
		{0, 0.50, false},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %g) = %v, want %v (beyond = %d)", c.n, c.q, got, c.want, beyond(c.n, c.q))
		}
	}
}

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	ramp := func(n int) sample {
		s := make(sample, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return s
	}
	for _, c := range []struct {
		n     int
		wantQ float64
		wantV float64
	}{
		{10000, 0.999, 9990},
		{1000, 0.99, 990},
		{500, 0.95, 475},
		{100, 0.90, 90},
		{40, 0.75, 30},
		{20, 0.50, 10},
	} {
		q, v, ok := ramp(c.n).tail()
		if !ok || q != c.wantQ || v != c.wantV {
			t.Errorf("n=%d: tail = (p%g, %g, %v), want (p%g, %g, true)", c.n, q*100, v, ok, c.wantQ*100, c.wantV)
		}
	}
	if _, _, ok := ramp(19).tail(); ok {
		t.Error("19 samples support no percentile, yet tail reported one")
	}
	if v, ok := ramp(999).at(0.99); ok || !math.IsNaN(v) {
		t.Errorf("p99 of 999 samples = (%g, %v), want unsupported", v, ok)
	}
	if m := ramp(5).median(); m != 3 {
		t.Errorf("median of 1..5 = %g, want 3", m)
	}
}

func TestArrivalsAreSeededAndCounted(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(3)), 200, 2*time.Second)
	b := arrivals(rand.New(rand.NewSource(3)), 200, 2*time.Second)
	if len(a) != 200 {
		t.Fatalf("%d arrivals, want 200", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between runs of one seed: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 2*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d = %v is out of order or outside the phase", i, a[i])
		}
	}
}

// An open loop times each request from when it was due, so requests that
// wait for a busy connection carry that wait in their latency.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const work = 20 * time.Millisecond
	send := func(ctx context.Context, p *payload) outcome {
		time.Sleep(work)
		return outcome{status: 200, ok: true}
	}
	sched := make([]time.Duration, 4) // four requests due at once, one connection
	res := openLoop(context.Background(), send, 1, sched, 100, []*payload{{}}, nil, nil)
	if res.sent != 4 || res.failed != 0 || len(res.latMS) != 4 {
		t.Fatalf("sent %d, failed %d, %d latencies; want 4, 0, 4", res.sent, res.failed, len(res.latMS))
	}
	lat := res.latMS.sorted()
	for k, l := range lat {
		lo := ms(work) * float64(k+1)
		if l < lo || l > lo+200 {
			t.Errorf("request %d latency %.1f ms, want at least %.0f ms (queued behind %d)", k, l, lo, k)
		}
	}
	if late := res.lateMS.sorted(); late[len(late)-1] > 50 {
		t.Errorf("generator lateness %.1f ms: handing a request on must not wait for a connection", late[len(late)-1])
	}
	if res.elapsed < 4*work {
		t.Errorf("elapsed %v shorter than the work done", res.elapsed)
	}
	if g := res.goodput(); math.Abs(g-4/res.elapsed.Seconds()) > 1e-9 {
		t.Errorf("goodput %g, want good responses per second of the phase", g)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	n := 0
	send := func(ctx context.Context, p *payload) outcome {
		n++ // one connection: no concurrent calls
		if n%2 == 0 {
			return outcome{status: 503}
		}
		return outcome{status: 200, ok: true}
	}
	res := openLoop(context.Background(), send, 1, make([]time.Duration, 6), 100, []*payload{{}}, nil, nil)
	if res.failed != 3 || len(res.latMS) != 3 || res.statuses[503] != 3 || res.passes() {
		t.Errorf("failed %d, good %d, 503s %d, passes %v; want 3, 3, 3, false",
			res.failed, len(res.latMS), res.statuses[503], res.passes())
	}
}

// Offered twice the connection's capacity, the backlog grows and the phase
// fails the goodput rule; offered half, it passes.
func TestOpenLoopDetectsGrowingBacklog(t *testing.T) {
	send := func(ctx context.Context, p *payload) outcome {
		time.Sleep(10 * time.Millisecond) // capacity 100/s on one connection
		return outcome{status: 200, ok: true}
	}
	for _, c := range []struct {
		rate float64
		want bool
	}{{200, true}, {50, false}} {
		sched := arrivals(rand.New(rand.NewSource(1)), int(c.rate), time.Second)
		res := openLoop(context.Background(), send, 1, sched, c.rate, []*payload{{}}, nil, nil)
		if got := res.growing(); got != c.want {
			t.Errorf("rate %g/s: growing = %v, want %v (slope %.1f/s, final depth %g)",
				c.rate, got, c.want, slope(res.depthT, res.depth), res.depth[len(res.depth)-1])
		}
		if res.passes() == c.want {
			t.Errorf("rate %g/s: passes = %v with growing = %v", c.rate, res.passes(), c.want)
		}
	}
}

func TestGrowingBacklogRule(t *testing.T) {
	mk := func(depth func(i int) float64) *phaseResult {
		r := &phaseResult{rate: 100}
		for i := 0; i < 100; i++ {
			r.depthT = append(r.depthT, float64(i)/100)
			r.depth = append(r.depth, depth(i))
		}
		return r
	}
	if mk(func(i int) float64 { return float64(i % 2) }).growing() {
		t.Error("a depth jittering between 0 and 1 is not a growing backlog")
	}
	if !mk(func(i int) float64 { return float64(i) / 2 }).growing() {
		t.Error("a depth rising 50/s at 100/s offered is a growing backlog")
	}
	drained := mk(func(i int) float64 {
		if i >= 90 {
			return 0
		}
		return float64(i)
	})
	if slope(drained.depthT, drained.depth) <= drained.rate/20 || drained.growing() {
		t.Error("a backlog drained by the end of the phase is not a growing backlog")
	}
	r := mk(func(int) float64 { return 0 })
	r.dropped = 1
	if !r.growing() {
		t.Error("requests that were never sent are a growing backlog")
	}
}

func TestChunksMerge(t *testing.T) {
	send := func(ctx context.Context, p *payload) outcome { return outcome{status: 200, ok: true} }
	ref := &phaseResult{rate: 100, statuses: map[int]int{}}
	for k := 0; k < 3; k++ {
		ref.add(openLoop(context.Background(), send, 1, make([]time.Duration, 5), 100, []*payload{{}}, nil, nil))
	}
	if ref.sent != 15 || len(ref.latMS) != 15 || len(ref.lateMS) != 15 || ref.statuses[200] != 15 || ref.grew {
		t.Errorf("merged chunks: sent %d, %d latencies, %d lateness samples, %d 200s, grew %v; want 15, 15, 15, 15, false",
			ref.sent, len(ref.latMS), len(ref.lateMS), ref.statuses[200], ref.grew)
	}
	ref.add(&phaseResult{statuses: map[int]int{}, grew: true})
	if !ref.grew || ref.passes() {
		t.Error("a chunk whose backlog grew must fail the merged phase")
	}
}

func TestPassesUsesSupportedTail(t *testing.T) {
	r := &phaseResult{rate: 100}
	for i := 0; i < 1000; i++ {
		r.latMS = append(r.latMS, 5)
	}
	if !r.passes() {
		t.Fatal("1000 fast responses fail the goodput rule")
	}
	for i := 0; i < 11; i++ { // beyond the p99 of 1011 samples
		r.latMS = append(r.latMS, ms(latencyLimit)+1)
	}
	if r.passes() {
		t.Error("a p99 above the latency limit passes the goodput rule")
	}
	if (&phaseResult{rate: 100, latMS: sample{1, 2, 3}}).passes() {
		t.Error("a phase too short to support any percentile passes the goodput rule")
	}
}

func TestSolveTimeWeighsSystemsEqually(t *testing.T) {
	// Three sweeps over the systems; system k takes k+1 units, with one
	// slow outlier on system 0.
	r := &replayResult{}
	for sweep := 0; sweep < 3; sweep++ {
		for k := 0; k < cgSystems; k++ {
			d := float64(k + 1)
			if sweep == 1 && k == 0 {
				d = 100
			}
			r.solveS = append(r.solveS, d)
		}
	}
	want := float64(cgSystems+1) / 2 // mean of 1..cgSystems
	if got := r.solveTime(); got != want {
		t.Errorf("solveTime = %g, want %g", got, want)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	p := tr.start("core.compress", nil, 0)
	t0 := tr.t0
	tr.record("ann.search", p, 0, t0.Add(10*time.Millisecond), t0.Add(30*time.Millisecond))
	tr.record("tree.build", p, 0, t0.Add(20*time.Millisecond), t0.Add(50*time.Millisecond))
	p.Start, p.End = 0, int64(100*time.Millisecond)
	self := tr.selfTimes()
	for layer, want := range map[string]float64{"core": 0.060, "ann": 0.020, "tree": 0.030} {
		if math.Abs(self[layer]-want) > 1e-9 {
			t.Errorf("self time of %s = %g s, want %g s", layer, self[layer], want)
		}
	}
}
