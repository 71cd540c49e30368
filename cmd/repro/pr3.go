package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/experiments"
	"gofmm/internal/linalg"
	"gofmm/internal/telemetry"
	"gofmm/internal/workspace"
)

// pr3Bench measures the PR 3 hot-path kernels — the register-tiled GEMM and
// the pooled zero-allocation matvec — and returns a gofmm.bench/v1 record
// whose metrics the CI regression gate compares against a checked-in
// baseline (ci/BENCH_pr3_baseline.json). All measurements are best-of-R
// wall-clock: the minimum is the right statistic for a throughput gate
// because every source of noise (scheduler, turbo, page faults) only ever
// slows a run down.
func pr3Bench(w io.Writer, n int, seed int64, rec *telemetry.Recorder) *telemetry.RunRecord {
	rr := telemetry.NewRunRecord("pr3")
	rr.Params["n"] = n
	rr.Params["seed"] = seed

	// Dense GEMM throughput at the macro-kernel's home shape.
	const gd = 512
	rng := rand.New(rand.NewSource(seed))
	A := linalg.GaussianMatrix(rng, gd, gd)
	B := linalg.GaussianMatrix(rng, gd, gd)
	C := linalg.NewMatrix(gd, gd)
	linalg.Gemm(false, false, 1, A, B, 0, C) // warm up packing pools
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		linalg.Gemm(false, false, 1, A, B, 0, C)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	gemmGF := 2 * float64(gd) * float64(gd) * float64(gd) / best.Seconds() / 1e9
	rr.Metrics["gemm512_gflops"] = gemmGF
	fmt.Fprintf(w, "gemm 512x512x512: %.2f GFLOPS\n", gemmGF)

	// Compressed matvec: fresh-buffer path vs pooled caller-owned-output
	// path on the same operator and weights.
	p := experiments.GetProblem("K02", n, seed)
	const r = 16
	cfg := core.Config{
		LeafSize: 128, MaxRank: 128, Tol: 1e-5, Kappa: 32, Budget: 0.03,
		Distance: core.Angle, Exec: core.Sequential, Seed: seed,
		CacheBlocks: true, Workspace: workspace.New(), Telemetry: rec,
	}
	h, err := core.Compress(p.K, cfg)
	if err != nil {
		fmt.Fprintln(w, err)
		return rr
	}
	W := linalg.GaussianMatrix(rng, p.K.Dim(), r)

	fresh := time.Duration(1 << 62)
	h.Matvec(W) // warm up caches and pool
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		h.Matvec(W)
		if d := time.Since(t0); d < fresh {
			fresh = d
		}
	}
	rr.Metrics["matvec_ms"] = fresh.Seconds() * 1e3

	ctx := context.Background()
	U := linalg.NewMatrix(p.K.Dim(), r)
	matvecInto := func() {
		if err := h.MatvecIntoCtx(ctx, W, U); err != nil {
			panic(err)
		}
	}
	matvecInto()
	pooled := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		matvecInto()
		if d := time.Since(t0); d < pooled {
			pooled = d
		}
	}
	rr.Metrics["matvec_pooled_ms"] = pooled.Seconds() * 1e3
	allocs := testing.AllocsPerRun(10, matvecInto)
	rr.Metrics["matvec_pooled_allocs"] = allocs
	st := h.Cfg.Workspace.Stats()
	rr.Metrics["workspace_hits"] = float64(st.Hits)
	rr.Metrics["workspace_bytes_reused"] = float64(st.BytesReused)
	fmt.Fprintf(w, "matvec (N=%d, r=%d): %.3f ms per call, pooled %.3f ms, %.0f allocs/op\n",
		p.K.Dim(), r, fresh.Seconds()*1e3, pooled.Seconds()*1e3, allocs)
	fmt.Fprintf(w, "workspace: %d hits, %d misses, %.1f MB reused\n",
		st.Hits, st.Misses, float64(st.BytesReused)/1e6)
	return rr
}
