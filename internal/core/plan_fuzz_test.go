package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
)

// TestPlanReplayInjectedPanicBecomesTypedError pins the crash funnel of the
// compiled path: a chaos-injected replay panic must surface from the public
// entry point as a typed *resilience.PanicError — never escape as a raw
// panic, and never poison the installed plan for later callers.
func TestPlanReplayInjectedPanicBecomesTypedError(t *testing.T) {
	cfg := planConfig()
	chaos := resilience.NewChaos(resilience.ChaosConfig{Seed: 5, TaskFail: 1}, nil)
	cfg.Chaos = chaos
	h, _ := compressGauss(t, 256, cfg)
	if _, err := h.CompilePlan(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	W := linalg.GaussianMatrix(rng, 256, 1)
	U := linalg.NewMatrix(256, 1)
	// Both entry points replay through the same envelope, so injection
	// reaches the caller-owned-output path too.
	for name, eval := range map[string]func() error{
		"MatvecCtx": func() error {
			_, err := h.MatvecCtx(context.Background(), W)
			return err
		},
		"MatvecIntoCtx": func() error { return h.MatvecIntoCtx(context.Background(), W, U) },
	} {
		h.Cfg.Chaos = chaos
		err := eval()
		var perr *resilience.PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("%s: injected replay fault surfaced as %v, want *resilience.PanicError", name, err)
		}
		if perr.Label != "matvec" {
			t.Fatalf("%s: panic label %q, want matvec", name, perr.Label)
		}
		if h.Plan() == nil {
			t.Fatalf("%s: injected fault uninstalled the plan", name)
		}
		// With the injector gone the same plan serves the same request.
		h.Cfg.Chaos = nil
		if err := eval(); err != nil {
			t.Fatalf("%s: plan poisoned by injected fault: %v", name, err)
		}
	}
}

// FuzzPlanReplay cross-checks compile-and-replay against the tree
// interpreter over fuzzed tree shapes (problem size, leaf size, skeleton
// rank, budget, caching precision, kernel bandwidth — a narrow one makes
// K nearly diagonal, so nodes skeletonize to rank 0) and fuzzed inputs,
// including NaN/Inf poisoning of the weight matrix. Three properties must survive anything
// the fuzzer finds:
//
//  1. replaying twice is bit-identical (Float64bits — NaN-safe);
//  2. plan and interpreter agree entrywise on finiteness (both paths
//     multiply the same block entries by the same weights, so a NaN or Inf
//     contaminates the same output rows regardless of accumulation order);
//  3. where both are finite they agree to near-machine precision relative
//     to the column scale.
func FuzzPlanReplay(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(int64(7), uint8(3), uint8(2), uint8(9), uint16(0xBEEF))
	f.Add(int64(42), uint8(1), uint8(5), uint8(4), uint16(1))
	f.Add(int64(3), uint8(1), uint8(0), uint8(2<<5), uint16(0)) // rank-0 nodes at width 2
	f.Fuzz(func(t *testing.T, seed int64, shape, rank, knobs uint8, poison uint16) {
		n := 48 + int(shape%5)*24                            // 48..144: varied tree shapes
		leaf := 8 << (shape % 3)                             // 8, 16, 32: varied depths
		maxRank := 6 + int(rank%4)*6                         // 6..24: varied skeleton ranks
		bud := float64(knobs%5) * 0.02                       // 0 (HSS) .. 0.08
		bandwidth := []float64{0.8, 0.2, 1e-3}[(knobs>>5)%3] // 1e-3: rank-0 nodes
		tol := 1e-5
		if rank%2 == 1 {
			tol = 1e-2
		}
		rng := rand.New(rand.NewSource(seed))
		K, X := gaussKernelMatrix(rng, n, bandwidth)
		cfg := Config{
			LeafSize: leaf, MaxRank: maxRank, Tol: tol, Kappa: 8, Budget: bud,
			Distance: Angle, Exec: Sequential, Seed: seed,
			CacheBlocks: true, CacheSingle: knobs%2 == 1, Points: X,
		}
		h, err := Compress(denseSPD{K}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.CompilePlanCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		r := 1 + int(shape%2) // width 1 (GEMV kernels) and 2 (GEMM kernels)
		W := linalg.GaussianMatrix(rng, n, r)
		for b := 0; b < 16; b++ {
			if poison&(1<<b) == 0 {
				continue
			}
			i := (b*131 + int(uint64(seed)%97)) % n
			v := math.NaN()
			switch b % 3 {
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			}
			W.Set(i, b%r, v)
		}
		ref, err := h.InterpMatmatCtx(context.Background(), W)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.MatmatCtx(context.Background(), W)
		if err != nil {
			t.Fatal(err)
		}
		again, err := h.MatmatCtx(context.Background(), W)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < r; j++ {
			g, a, rf := got.Col(j), again.Col(j), ref.Col(j)
			scale := 1.0
			for i := range rf {
				if v := math.Abs(rf[i]); !math.IsInf(v, 0) && !math.IsNaN(v) && v > scale {
					scale = v
				}
			}
			for i := range g {
				if math.Float64bits(g[i]) != math.Float64bits(a[i]) {
					t.Fatalf("replay not bit-identical at (%d,%d): %x vs %x",
						i, j, math.Float64bits(g[i]), math.Float64bits(a[i]))
				}
				gFin := !math.IsNaN(g[i]) && !math.IsInf(g[i], 0)
				rFin := !math.IsNaN(rf[i]) && !math.IsInf(rf[i], 0)
				if gFin != rFin {
					t.Fatalf("finiteness differs at (%d,%d): plan %v, interpreter %v", i, j, g[i], rf[i])
				}
				if gFin && math.Abs(g[i]-rf[i]) > 1e-12*scale {
					t.Fatalf("plan vs interpreter differ at (%d,%d): %v vs %v (scale %g)",
						i, j, g[i], rf[i], scale)
				}
			}
		}
	})
}
