package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"gofmm/internal/ann"
	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/metric"
	"gofmm/internal/plan"
	"gofmm/internal/store"
	"gofmm/internal/tree"
	"gofmm/testmat"
)

// probeTime is how long one traced microbenchmark repeats its call.
const probeTime = 300 * time.Millisecond

// repeat times f until probeTime has passed and at least minReps calls were
// made, and returns the median call time in milliseconds.
func repeat(minReps int, f func() error) (float64, error) {
	var s sample
	stop := time.Now().Add(probeTime)
	for len(s) < minReps || time.Now().Before(stop) {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		s = append(s, ms(time.Since(t)))
	}
	return s.median(), nil
}

// probes measures the layers below the operator from outside, by timing
// calls into their public functions. It runs only in traced runs.
func (b *bench) probes(ctx context.Context, last *built, v map[string]float64, parent *span) error {
	root := b.tr.start("bench.probes", parent, 0)
	defer root.end()
	n := b.w.n

	// ann and tree: the neighbor search and the ball tree CompressCtx runs,
	// called directly on a counting oracle.
	p, err := testmat.Generate(matrixName, n, b.seed)
	if err != nil {
		return err
	}
	oracle := core.NewCounting(p.K)
	space := metric.AngleSpace{K: oracle}
	sp := b.tr.start("ann.search", root, 0)
	t := time.Now()
	nl := ann.Search(n, kappa, space, ann.Options{LeafSize: leafSize, Seed: configSeed, Workers: workers})
	v["ann.search_s"] = time.Since(t).Seconds()
	sp.end()
	v["ann.oracle_entries"] = float64(oracle.Count())
	sp = b.tr.start("ann.recall", root, 0)
	v["ann.recall"] = ann.SampleRecall(nl, metric.AngleSpace{K: p.K}, 64, configSeed)
	sp.end()
	sp = b.tr.start("tree.build", root, 0)
	t = time.Now()
	tree.Build(n, leafSize, &metric.BallSplit{Space: space, Rng: rand.New(rand.NewSource(configSeed + 1))})
	v["tree.build_s"] = time.Since(t).Seconds()
	sp.end()

	// store: the container open alone.
	v["store.open_ms"], err = repeat(5, func() error {
		sp := b.tr.start("store.open", root, 0)
		defer sp.end()
		f, err := store.OpenMmap(b.storePath)
		if err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		return fmt.Errorf("store open: %w", err)
	}

	// plan: direct replays into caller-owned outputs.
	h := last.h
	pl := h.Plan()
	if pl == nil {
		return fmt.Errorf("operator has no compiled plan")
	}
	v["plan.ops"] = float64(pl.NumOps())
	v["plan.stages"] = float64(pl.NumStages())
	v["plan.flops_per_col"] = pl.FlopsPerCol()
	opts := plan.ExecOptions{Workers: workers, Pool: b.pool}
	for _, r := range []int{1, 2, 16} {
		W, U := block(n, r, b.seed+500), linalg.NewMatrix(n, r)
		name := fmt.Sprintf("plan.replay_r%d_ms", r)
		v[name], err = repeat(10, func() error {
			sp := b.tr.start("plan.execute", root, 0)
			defer sp.end()
			return pl.Execute(ctx, W, U, opts)
		})
		if err != nil {
			return fmt.Errorf("plan replay: %w", err)
		}
	}
	v["plan.gflops_r16"] = pl.FlopsPerCol() * 16 / (v["plan.replay_r16_ms"] * 1e6)
	v["plan.gbps_r1"] = float64(replayBytes(pl, 1)) / (v["plan.replay_r1_ms"] * 1e6)

	// linalg: the plan's most common GEMM shape, alone.
	if err := b.kernelProbes(pl, v, root); err != nil {
		return err
	}
	v["plan.gemm_fraction_r16"] = v["plan.gflops_r16"] / v["linalg.gemm_gflops_w16"]

	// core: the tree interpreter, the reference the plan replaces.
	X1, X16 := block(n, 1, b.seed+600), block(n, 16, b.seed+601)
	v["core.interp_r1_ms"], err = repeat(5, func() error {
		sp := b.tr.start("core.interp_matvec", root, 0)
		defer sp.end()
		_, err := h.InterpMatvecCtx(ctx, X1)
		return err
	})
	if err == nil {
		v["core.interp_r16_ms"], err = repeat(5, func() error {
			sp := b.tr.start("core.interp_matmat", root, 0)
			defer sp.end()
			_, err := h.InterpMatmatCtx(ctx, X16)
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("interpreter: %w", err)
	}
	v["plan.x_interp_r16"] = v["core.interp_r16_ms"] / v["plan.replay_r16_ms"]

	// What sets the width-1 replay's tail: heap allocations per call and
	// how often the workspace pool serves buffers from its free lists.
	const calls = 50
	var m0, m1 runtime.MemStats
	w0 := b.pool.Stats()
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		if _, err := h.MatvecCtx(ctx, X1); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	w1 := b.pool.Stats()
	v["replay.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / calls
	// A warm plan replay keeps its buffers between calls and may ask the
	// pool for nothing; with no requests, none missed.
	hits, misses := w1.Hits-w0.Hits, w1.Misses-w0.Misses
	v["workspace.hit_ratio"] = 1
	if hits+misses > 0 {
		v["workspace.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	fmt.Printf("replay tail contributors: %.1f allocations and %.1f workspace requests per width-1 matvec\n",
		v["replay.allocs_per_op"], float64(hits+misses)/calls)
	return nil
}

// kernelProbes times the plan's modal GEMM operand alone at widths 1, 2
// and 16.
func (b *bench) kernelProbes(pl *plan.Plan, v map[string]float64, parent *span) error {
	type shape struct {
		mixed, trans bool
		rows, cols   int
	}
	count := map[shape]int{}
	first := map[shape]*plan.Op{}
	var modal shape
	ops := pl.Ops()
	for i := range ops {
		op := &ops[i]
		if op.Kind != plan.OpGemm {
			continue
		}
		s := shape{mixed: op.A32 != nil, trans: op.TransA}
		if s.mixed {
			s.rows, s.cols = op.A32.Rows, op.A32.Cols
		} else {
			s.rows, s.cols = op.A.Rows, op.A.Cols
		}
		count[s]++
		if first[s] == nil {
			first[s] = op
		}
		if count[s] > count[modal] {
			modal = s
		}
	}
	op := first[modal]
	if op == nil {
		return fmt.Errorf("plan has no GEMM")
	}
	m, k := modal.rows, modal.cols
	if modal.trans {
		m, k = k, m
	}
	flops := 2 * float64(m) * float64(k)
	fmt.Printf("kernel probe: modal GEMM %dx%d (mixed=%v trans=%v), %d of the plan's GEMMs\n",
		modal.rows, modal.cols, modal.mixed, modal.trans, count[modal])

	x, y := make([]float64, k), make([]float64, m)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	// One span per repeated kernel call, not per call: the calls take
	// microseconds.
	sp := b.tr.start("linalg.gemv", parent, 0)
	gemv, _ := repeat(200, func() error {
		if modal.mixed {
			linalg.GemvMixed(1, op.A32, x, 0, y)
		} else {
			linalg.Gemv(modal.trans, 1, op.A, x, 0, y)
		}
		return nil
	})
	sp.end()
	v["linalg.gemv_gflops"] = flops / (gemv * 1e6)
	for _, r := range []int{2, 16} {
		B, C := block(k, r, int64(r)), linalg.NewMatrix(m, r)
		sp := b.tr.start("linalg.gemm", parent, 0)
		t, _ := repeat(200, func() error {
			if modal.mixed {
				linalg.GemmMixed(1, op.A32, B, 0, C)
			} else {
				linalg.Gemm(modal.trans, false, 1, op.A, B, 0, C)
			}
			return nil
		})
		sp.end()
		v[fmt.Sprintf("linalg.gemm_gflops_w%d", r)] = flops * float64(r) / (t * 1e6)
	}
	return nil
}

// replayBytes is the bytes one replay of width r touches, computed from
// the op operands (constant matrices once, arena and external regions per
// column); cache behaviour is not modelled.
func replayBytes(pl *plan.Plan, r int) int64 {
	var total int64
	ops := pl.Ops()
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case plan.OpGemm:
			if op.A32 != nil {
				total += 4 * int64(op.A32.Rows*op.A32.Cols)
			} else {
				total += 8 * int64(op.A.Rows*op.A.Cols)
			}
			c := int64(op.C.Rows)
			if op.Beta != 0 {
				c *= 2
			}
			total += 8 * int64(r) * (int64(op.B.Rows) + c)
		case plan.OpGather, plan.OpScatter:
			total += 8*int64(len(op.Idx)) + 16*int64(r*len(op.Idx))
		case plan.OpCopy:
			total += 16 * int64(r*op.C.Rows)
		case plan.OpAdd:
			total += 24 * int64(r*op.C.Rows)
		case plan.OpZero:
			total += 8 * int64(r*op.C.Rows)
		}
	}
	return total
}

// serveProbes measures what the HTTP path is built from: the registry
// operator called in-process, and a bare BatchEvaluator, each with two
// concurrent callers.
func (b *bench) serveProbes(ctx context.Context, s *server, last *built, v map[string]float64, parent *span) error {
	op, err := s.reg.Get(opName)
	if err != nil {
		return err
	}
	ws := vectors(s.n, 2, b.seed+700)
	direct, err := twoCallers(ws, func(W *linalg.Matrix) error {
		sp := b.tr.start("serve.direct_matvec", parent, 0)
		defer sp.end()
		_, err := op.Matvec(ctx, W)
		return err
	})
	if err != nil {
		return fmt.Errorf("direct operator matvec: %w", err)
	}
	v["serve.direct_p50_ms"] = direct.median()

	be := last.h.NewBatchEvaluatorCtx(ctx, core.BatchOptions{})
	defer be.Close()
	batched, err := twoCallers(ws, func(W *linalg.Matrix) error {
		sp := b.tr.start("core.batch_matvec", parent, 0)
		defer sp.end()
		_, err := be.Matvec(ctx, W)
		return err
	})
	if err != nil {
		return fmt.Errorf("batch evaluator: %w", err)
	}
	v["batch.p50_ms"] = batched.median()
	st := be.Stats()
	v["batch.cols_per_flush"] = float64(st.Columns) / float64(max(st.Flushes, 1))
	return nil
}

// twoCallers runs f from two goroutines in closed loops for probeTime (at
// least 50 calls each) and returns every call's time in milliseconds.
func twoCallers(ws []*linalg.Matrix, f func(W *linalg.Matrix) error) (sample, error) {
	var mu sync.Mutex
	var all sample
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(W *linalg.Matrix) {
			defer wg.Done()
			var mine sample
			stop := time.Now().Add(probeTime)
			for len(mine) < 50 || time.Now().Before(stop) {
				t := time.Now()
				if err := f(W); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				mine = append(mine, ms(time.Since(t)))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(ws[c])
	}
	wg.Wait()
	return all, firstErr
}
