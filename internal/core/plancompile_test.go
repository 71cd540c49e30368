package core

import (
	"context"
	"math/rand"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/workspace"
)

// planConfig is a small compressible fixture config exercising near+far
// lists, adaptive ranks and the dynamic executor.
func planConfig() Config {
	return Config{
		LeafSize: 32, MaxRank: 48, Tol: 1e-5, Kappa: 8, Budget: 0.05,
		Distance: Angle, Exec: Sequential, Seed: 7, CacheBlocks: true,
	}
}

// TestCompiledPlanMatchesInterpreter is the lowering smoke test: the
// compiled replay must reproduce the tree interpreter to near machine
// precision on the same operator, across caching regimes (cached float64,
// cached float32, uncached) and RHS widths.
func TestCompiledPlanMatchesInterpreter(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"cached", func(c *Config) {}},
		{"cached32", func(c *Config) { c.CacheSingle = true }},
		{"uncached", func(c *Config) { c.CacheBlocks = false }},
		{"hss", func(c *Config) { c.Budget = 0 }},
		{"pooled", func(c *Config) { c.Workspace = workspace.New() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := planConfig()
			tc.mut(&cfg)
			h, _ := compressGauss(t, 384, cfg)
			p, err := h.CompilePlan()
			if err != nil {
				t.Fatal(err)
			}
			if h.Plan() != p {
				t.Fatal("Plan() does not return the installed plan")
			}
			rng := rand.New(rand.NewSource(11))
			for _, r := range []int{1, 3, 8} {
				W := linalg.GaussianMatrix(rng, 384, r)
				ref, err := h.InterpMatmatCtx(context.Background(), W)
				if err != nil {
					t.Fatal(err)
				}
				got, err := h.MatmatCtx(context.Background(), W)
				if err != nil {
					t.Fatal(err)
				}
				if d := linalg.RelFrobDiff(got, ref); d > 1e-13 {
					t.Fatalf("r=%d: compiled replay differs from interpreter by %g", r, d)
				}
			}
		})
	}
}

// TestCompiledPlanParallelReplayBitIdentical pins the replay determinism
// contract at the core layer: sequential replay and worker-pool replay of
// the same plan produce the exact same bits.
func TestCompiledPlanParallelReplayBitIdentical(t *testing.T) {
	cfg := planConfig()
	h, _ := compressGauss(t, 384, cfg)
	if _, err := h.CompilePlan(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	W := linalg.GaussianMatrix(rng, 384, 4)
	seq, err := h.MatmatCtx(context.Background(), W)
	if err != nil {
		t.Fatal(err)
	}
	h.Cfg.Exec = Dynamic
	h.Cfg.NumWorkers = 8
	par, err := h.MatmatCtx(context.Background(), W)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < seq.Cols; j++ {
		a, b := seq.Col(j), par.Col(j)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("replay differs at (%d,%d): %v vs %v", i, j, a[i], b[i])
			}
		}
	}
}

// TestCompressInstallsPlanWhenCached pins the default engine: a CacheBlocks
// compression installs the compiled plan, while an uncached one compiles
// nothing and its public path is the tree interpreter, bit for bit.
func TestCompressInstallsPlanWhenCached(t *testing.T) {
	cfg := planConfig()
	h, _ := compressGauss(t, 256, cfg)
	if h.Plan() == nil {
		t.Fatal("a CacheBlocks compression did not install a plan")
	}
	if h.Stats.PlanTime < 0 {
		t.Fatal("negative PlanTime")
	}
	cfg.CacheBlocks = false
	hu, _ := compressGauss(t, 256, cfg)
	if hu.Plan() != nil {
		t.Fatal("an uncached compression installed a plan")
	}
	rng := rand.New(rand.NewSource(14))
	for _, r := range []int{1, 3} {
		W := linalg.GaussianMatrix(rng, 256, r)
		ref, err := hu.InterpMatvecCtx(context.Background(), W)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hu.MatvecCtx(context.Background(), W)
		if err != nil {
			t.Fatal(err)
		}
		if !linalg.EqualApprox(got, ref, 0) {
			t.Fatalf("r=%d: uncached MatvecCtx is not the interpreter (max |Δ| = %g)", r, maxAbsDiff(got, ref))
		}
	}
}

// TestPlanRankZeroNodes compiles an operator whose nodes all have rank 0
// (the identity has no far field): the plan must skip the zero-row N2S
// records the interpreter skips and agree with it at every width.
func TestPlanRankZeroNodes(t *testing.T) {
	n := 256
	h, err := Compress(denseSPD{linalg.Eye(n)}, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-10, Kappa: 4, Budget: 0,
		Distance: Kernel, Exec: Sequential, Seed: 174, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats.AvgRank != 0 {
		t.Fatalf("fixture has avg rank %g, want 0", h.Stats.AvgRank)
	}
	if _, err := h.CompilePlanCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(175))
	for _, r := range []int{1, 2, 16} {
		W := linalg.GaussianMatrix(rng, n, r)
		ref, err := h.InterpMatvecCtx(context.Background(), W)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.MatvecCtx(context.Background(), W)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if !linalg.EqualApprox(got, ref, 0) {
			t.Fatalf("r=%d: plan differs from interpreter (max |Δ| = %g)", r, maxAbsDiff(got, ref))
		}
		if d := linalg.RelFrobDiff(got, W); d > 1e-14 {
			t.Fatalf("r=%d: I·W ≠ W: %g", r, d)
		}
	}
}

// TestMatvecIntoReplaysPlan: with a plan installed, MatvecIntoCtx replays
// it into the caller-owned output, agreeing with the tree interpreter to
// 1e-13 (the replay uses beta-0 writes where the interpreter zeroes then
// accumulates) and bit-identical to itself across replays.
func TestMatvecIntoReplaysPlan(t *testing.T) {
	cfg := planConfig()
	cfg.Workspace = workspace.New()
	h, _ := compressGauss(t, 256, cfg)
	if h.Plan() == nil {
		t.Fatal("a CacheBlocks compression did not install a plan")
	}
	rng := rand.New(rand.NewSource(13))
	W := linalg.GaussianMatrix(rng, 256, 2)
	want, err := h.InterpMatvecCtx(context.Background(), W)
	if err != nil {
		t.Fatal(err)
	}
	got := matvecInto(t, h, W)
	if d := linalg.RelFrobDiff(got, want); d > 1e-13 {
		t.Fatalf("plan replay into a caller-owned output differs from interpreter by %g", d)
	}
	// Replays must be bit-identical to each other.
	if again := matvecInto(t, h, W); !linalg.EqualApprox(got, again, 0) {
		t.Fatal("replay into a caller-owned output not bit-identical")
	}
}

// TestMatvecIntoWithoutPlanMatchesMatvec covers the uncached operator: with
// no plan to replay MatvecIntoCtx runs the interpreter and matches
// MatvecCtx bit for bit.
func TestMatvecIntoWithoutPlanMatchesMatvec(t *testing.T) {
	cfg := planConfig()
	cfg.CacheBlocks = false
	h, _ := compressGauss(t, 256, cfg)
	if h.Plan() != nil {
		t.Fatal("an uncached compression installed a plan")
	}
	rng := rand.New(rand.NewSource(15))
	W := linalg.GaussianMatrix(rng, 256, 3)
	want, err := h.MatvecCtx(context.Background(), W)
	if err != nil {
		t.Fatal(err)
	}
	if got := matvecInto(t, h, W); !linalg.EqualApprox(got, want, 0) {
		t.Fatalf("uncached MatvecIntoCtx differs from MatvecCtx (max |Δ| = %g)", maxAbsDiff(got, want))
	}
}

// TestStaticFlopsMatchCompiledPlan pins the one flop count both engines
// report: the symbolic count of an operator without a plan equals the
// FlopsPerCol of the plan it compiles, and the interpreter's Stats carry
// exactly that count times the width.
func TestStaticFlopsMatchCompiledPlan(t *testing.T) {
	for _, budget := range []float64{0, 0.05, 0.3} {
		cfg := planConfig()
		cfg.CacheBlocks = false
		cfg.Budget = budget
		h, _ := compressGauss(t, 256, cfg)
		static := h.flopsPerCol() // no plan installed: the symbolic count
		if static <= 0 {
			t.Fatalf("budget %g: static flop count %g", budget, static)
		}
		rng := rand.New(rand.NewSource(17))
		if _, err := h.InterpMatvecCtx(context.Background(), linalg.GaussianMatrix(rng, 256, 3)); err != nil {
			t.Fatal(err)
		}
		if _, flops := h.LastEval(); flops != 3*static {
			t.Fatalf("budget %g: interpreter reported %g flops, want 3×%g", budget, flops, static)
		}
		p, err := h.CompilePlanCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := p.FlopsPerCol(); got != static {
			t.Fatalf("budget %g: compiled plan counts %g flops per column, symbolic count %g", budget, got, static)
		}
	}
}

// TestEvaluationAllocs pins the allocation profile of the planned hot
// path: MatvecIntoCtx on a Sequential, pooled operator allocates nothing in
// steady state, and MatvecCtx allocates only its result matrix.
func TestEvaluationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled replay bindings at random")
	}
	cfg := planConfig()
	cfg.Workspace = workspace.New()
	h, _ := compressGauss(t, 256, cfg)
	if h.Plan() == nil {
		t.Fatal("a CacheBlocks compression did not install a plan")
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	W := linalg.GaussianMatrix(rng, 256, 4)
	U := linalg.NewMatrix(256, 4)
	into := func() {
		if err := h.MatvecIntoCtx(ctx, W, U); err != nil {
			t.Fatal(err)
		}
	}
	into() // warm the replay binding for this width
	if a := testing.AllocsPerRun(20, into); a != 0 {
		t.Fatalf("MatvecIntoCtx: %g allocs/op, want 0", a)
	}
	result := testing.AllocsPerRun(20, func() { U = linalg.NewMatrix(256, 4) })
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := h.MatvecCtx(ctx, W); err != nil {
			t.Fatal(err)
		}
	})
	if fresh != result {
		t.Fatalf("MatvecCtx: %g allocs/op, want only the %g of its result matrix", fresh, result)
	}
}
