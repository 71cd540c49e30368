package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/workspace"
	"gofmm/krylov"
	"gofmm/testmat"
)

// The operator under test, shared by every workload: the on-the-fly 6-D
// Gaussian kernel K08 (h=2), compressed with the paper's defaults at
// m=s=64. Only the point set and the right-hand sides come from --seed.
const (
	matrixName = "K08"
	leafSize   = 64
	maxRank    = 64
	tolerance  = 1e-5
	kappa      = 32
	budget     = 0.03
	workers    = 2
	configSeed = 7 // Config.Seed and the ε₂ block and rows: fixed, not --seed

	eps2Rows  = 100  // rows sampled for ε₂ (Eq. 11)
	eps2Cols  = 32   // right-hand sides ε₂ is measured on
	eps2Draws = 9    // row samples per life cycle; ε₂ is their median
	eps2Bound = 1e-3 // an operator less accurate than this fails the run

	cgShift    = 1.0  // λ in (K̃ + λI)x = b
	cgTol      = 1e-8 // relative residual CG must reach
	cgMax      = 500  // iteration cap; hitting it is a failure
	cgSystems  = 4    // right-hand sides, solved in turn
	cgPerRound = 2    // solves per replay slice
)

func opConfig(pool *workspace.Pool, captureTrace bool) core.Config {
	return core.Config{
		LeafSize: leafSize, MaxRank: maxRank, Tol: tolerance, Kappa: kappa,
		Budget: budget, Distance: core.Angle, Exec: core.Dynamic,
		NumWorkers: workers, CacheBlocks: true, CacheSingle: true,
		Seed: configSeed, Workspace: pool, CaptureTrace: captureTrace,
	}
}

// vectors returns k seeded n×1 right-hand sides with entries in [-1, 1).
func vectors(n, k int, seed int64) []*linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*linalg.Matrix, k)
	for i := range out {
		out[i] = linalg.NewMatrix(n, 1)
		for j := range out[i].Data {
			out[i].Data[j] = 2*rng.Float64() - 1
		}
	}
	return out
}

// block returns a seeded n×r block with entries in [-1, 1).
func block(n, r int, seed int64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	X := linalg.NewMatrix(n, r)
	for j := range X.Data {
		X.Data[j] = 2*rng.Float64() - 1
	}
	return X
}

func sameBits(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		x, y := a.Col(j), b.Col(j)
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
	}
	return true
}

// relDiff is ‖a−b‖_F / ‖b‖_F.
func relDiff(a, b *linalg.Matrix) float64 {
	var num, den float64
	for j := 0; j < a.Cols; j++ {
		x, y := a.Col(j), b.Col(j)
		for i := range x {
			d := x[i] - y[i]
			num += d * d
			den += y[i] * y[i]
		}
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// built is one pass of the operator's life cycle: oracle → CompressCtx →
// CompilePlanCtx → SaveTo → LoadFrom(Mmap) → first matvec.
type built struct {
	h          *core.Hierarchical // in-memory, compiled
	probeOut   *linalg.Matrix     // the mmap-loaded operator's first matvec
	storeBytes int64
	eps2       float64

	setupS, compressS, coldMS                  float64
	compileMS, saveMS, loadMS, firstMatvecMS   float64
	oracleEntries                              int64
	listsS, skelS, cacheS, avgRank, directFrac float64
	busyFrac                                   float64
}

// cycle runs one life cycle of the workload's operator and checks it: ε₂
// under eps2Bound and the mmap-loaded matvec bit-identical to the
// in-memory one. The loaded operator is released before returning; the
// in-memory one is returned for replay.
//
// ε₂ is measured on a fixed block of eps2Cols right-hand sides and fixed
// row samples, part of the instrument like Config.Seed: on one vector it
// swings by orders of magnitude with the vector's component along the
// kernel's leading eigenvector, so a block drawn from --seed would make ε₂
// track the draw rather than the operator.
func (b *bench) cycle(ctx context.Context, parent *span) (*built, error) {
	out := &built{}
	root := b.tr.start("bench.cycle", parent, 0)
	defer root.end()
	t0 := time.Now()

	p, err := testmat.Generate(matrixName, b.w.n, b.seed)
	if err != nil {
		return nil, err
	}
	oracle := core.NewCounting(p.K)
	tc := time.Now()
	sp := b.tr.start("core.compress", root, 0)
	h, err := core.CompressCtx(ctx, oracle, opConfig(b.pool, b.traced))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	out.oracleEntries = oracle.Count()
	tp := time.Now()
	sp = b.tr.start("plan.compile", root, 0)
	_, err = h.CompilePlanCtx(ctx)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("compile plan: %w", err)
	}
	out.compileMS = ms(time.Since(tp))
	out.compressS = time.Since(tc).Seconds()
	out.listsS, out.skelS, out.cacheS = h.Stats.ListsTime, h.Stats.SkelTime, h.Stats.CacheTime
	out.avgRank, out.directFrac = h.Stats.AvgRank, h.Stats.DirectFrac
	if b.traced && h.Stats.SkelTime > 0 {
		var busy time.Duration
		for _, ev := range h.LastTrace {
			busy += ev.Dur
		}
		out.busyFrac = busy.Seconds() / (workers * h.Stats.SkelTime)
	}

	ts := time.Now()
	sp = b.tr.start("store.save", root, 0)
	out.storeBytes, err = h.SaveTo(b.storePath)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("save store: %w", err)
	}
	out.saveMS = ms(time.Since(ts))

	tl := time.Now()
	sp = b.tr.start("store.load", root, 0)
	loaded, _, err := core.LoadFrom(b.storePath, core.LoadOptions{
		Mmap: true, NumWorkers: workers, Workspace: b.pool,
	})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("load store: %w", err)
	}
	defer func() {
		if rerr := loaded.ReleaseStore(); rerr != nil {
			b.logf("release store: %v", rerr)
		}
	}()
	out.loadMS = ms(time.Since(tl))
	probe := b.probe
	tf := time.Now()
	sp = b.tr.start("store.first_matvec", root, 0)
	Ul, err := loaded.MatvecCtx(ctx, probe)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("first matvec: %w", err)
	}
	out.firstMatvecMS = ms(time.Since(tf))
	out.coldMS = ms(time.Since(tl))
	out.setupS = time.Since(t0).Seconds()

	// Checks, outside every timed span.
	out.h, out.probeOut = h, Ul
	Um, err := h.MatvecCtx(ctx, probe)
	if !b.check(err == nil, "in-memory matvec: %v", err) {
		return out, nil
	}
	b.check(sameBits(Ul, Um), "mmap-loaded matvec differs from the in-memory one")
	W := block(b.w.n, eps2Cols, configSeed)
	U, err := h.MatmatCtx(ctx, W)
	if !b.check(err == nil, "ε₂ matmat: %v", err) {
		return out, nil
	}
	var draws sample
	for d := 0; d < eps2Draws; d++ {
		draws = append(draws, h.SampleRelErr(W, U, eps2Rows, configSeed+int64(d)))
	}
	out.eps2 = draws.median()
	b.check(out.eps2 <= eps2Bound, "eps2 %.3g above bound %.0e", out.eps2, eps2Bound)
	return out, nil
}

// replayResult holds the closed-loop replay phase's samples.
type replayResult struct {
	r1MS, r16MS, solveS sample
	cgIters             int     // iterations summed over the cgSystems right-hand sides
	cgResidual          float64 // the largest final relative residual
}

// solveTime is the mean over the CG systems of each system's median solve
// time. The systems take different iteration counts, so a median over all
// solves would jump between their times from run to run.
func (r *replayResult) solveTime() float64 {
	var sum float64
	for k := 0; k < cgSystems; k++ {
		var s sample
		for i := k; i < len(r.solveS); i += cgSystems {
			s = append(s, r.solveS[i])
		}
		sum += s.median()
	}
	return sum / cgSystems
}

// replayer runs the closed-loop replay phase on the in-memory operator in
// slices: width-1 MatvecCtx, width-16 MatmatCtx, then CG on (K̃+λI)x = b.
// Every product is checked bit-for-bit against the first product of the
// same input, and every solve must reach cgTol.
type replayer struct {
	b     *bench
	h     *core.Hierarchical
	root  *span
	ws    []*linalg.Matrix // width-1 inputs, used in turn
	ref   []*linalg.Matrix // first product of each width-1 input
	X     *linalg.Matrix   // width-16 input
	ref16 []*linalg.Matrix
	rhs   []*linalg.Matrix // CG right-hand sides, solved in turn
	iters []int            // first iteration count of each system
	res   replayResult
}

// newReplayer checks that the compiled plan agrees with the tree
// interpreter on the probe vector, and prepares the replay inputs.
func (b *bench) newReplayer(ctx context.Context, h *core.Hierarchical, parent *span) (*replayer, error) {
	r := &replayer{b: b, h: h, root: parent}
	sp := b.tr.start("core.interp_matvec", parent, 0)
	Ui, err := h.InterpMatvecCtx(ctx, b.probe)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("interpreter matvec: %w", err)
	}
	Up, err := h.MatvecCtx(ctx, b.probe)
	if err != nil {
		return nil, fmt.Errorf("plan matvec: %w", err)
	}
	d := relDiff(Up, Ui)
	b.check(d <= 1e-10, "plan and interpreter differ by %.3g on the probe vector", d)

	n := h.N()
	r.ws = vectors(n, 8, b.seed+100)
	r.ref = make([]*linalg.Matrix, len(r.ws))
	r.X = block(n, 16, b.seed+200)
	r.ref16 = make([]*linalg.Matrix, 1)
	r.rhs = vectors(n, cgSystems, b.seed+300)
	r.iters = make([]int, cgSystems)
	return r, nil
}

// slice runs one slice of the phase: at least matvecs width-1 products
// and matmats width-16 products, each kind for at least its share of dur
// (6/10 and 3/10), then cgPerRound CG solves.
func (r *replayer) slice(ctx context.Context, matvecs, matmats int, dur time.Duration) {
	b, h := r.b, r.h
	stop := time.Now().Add(dur * 6 / 10)
	for i := 0; i < matvecs || time.Now().Before(stop); i++ {
		k := len(r.res.r1MS) % len(r.ws)
		sp := b.tr.start("core.matvec", r.root, 0)
		t := time.Now()
		U, err := h.MatvecCtx(ctx, r.ws[k])
		d := time.Since(t)
		sp.end()
		r.res.r1MS = append(r.res.r1MS, ms(d))
		b.checkRepeat(r.ref, k, U, err, "width-1 matvec")
	}
	stop = time.Now().Add(dur * 3 / 10)
	for i := 0; i < matmats || time.Now().Before(stop); i++ {
		sp := b.tr.start("core.matmat", r.root, 0)
		t := time.Now()
		U, err := h.MatmatCtx(ctx, r.X)
		d := time.Since(t)
		sp.end()
		r.res.r16MS = append(r.res.r16MS, ms(d))
		b.checkRepeat(r.ref16, 0, U, err, "width-16 matmat")
	}

	for j := 0; j < cgPerRound; j++ {
		i := len(r.res.solveS)
		k := i % cgSystems
		sp := b.tr.start("krylov.cg", r.root, 0)
		t := time.Now()
		_, cg, err := krylov.CG(krylov.Shifted{A: h, Sigma: cgShift}, nil, r.rhs[k].Col(0), cgTol, cgMax)
		d := time.Since(t)
		sp.end()
		r.res.solveS = append(r.res.solveS, d.Seconds())
		b.check(err == nil && cg.Residual < cgTol && (i < cgSystems || cg.Iterations == r.iters[k]),
			"cg: %v after %d iterations, residual %.3g (first solve of this system: %d iterations)",
			err, cg.Iterations, cg.Residual, r.iters[k])
		if i < cgSystems {
			r.iters[k] = cg.Iterations
			r.res.cgIters += cg.Iterations
			r.res.cgResidual = max(r.res.cgResidual, cg.Residual)
		}
	}
}

// checkRepeat counts one product and fails it unless it succeeded and, for
// an input seen before, repeats the first product bit for bit.
func (b *bench) checkRepeat(ref []*linalg.Matrix, k int, U *linalg.Matrix, err error, what string) {
	if !b.check(err == nil, "%s: %v", what, err) {
		return
	}
	if ref[k] == nil {
		ref[k] = U
		return
	}
	b.check(sameBits(U, ref[k]), "%s: product of a repeated input changed", what)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
