package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
)

func TestMatvecNearExactWithTightTolerance(t *testing.T) {
	// With the full complement sampled and an uncapped rank, the adaptive
	// ID is limited only by τ, so the matvec must be near machine accurate.
	h, K := compressGauss(t, 400, Config{
		LeafSize: 32, MaxRank: 400, Tol: 1e-12, Kappa: 8,
		Budget: 0.1, Distance: Kernel, Exec: Sequential, Seed: 1,
		CacheBlocks: true, SampleRows: 400,
	})
	rng := rand.New(rand.NewSource(2))
	W := linalg.GaussianMatrix(rng, 400, 5)
	U := h.Matvec(W)
	exact := linalg.MatMul(false, false, K, W)
	if d := linalg.RelFrobDiff(U, exact); d > 1e-8 {
		t.Fatalf("tight-tolerance matvec error %g (avg rank %.1f)", d, h.Stats.AvgRank)
	}
}

func TestMatvecHSSMode(t *testing.T) {
	h, K := compressGauss(t, 400, Config{
		LeafSize: 32, MaxRank: 32, Tol: 1e-12, Kappa: 8,
		Budget: 0, Distance: Kernel, Exec: Sequential, Seed: 1,
		CacheBlocks: true,
	})
	rng := rand.New(rand.NewSource(3))
	W := linalg.GaussianMatrix(rng, 400, 3)
	U := h.Matvec(W)
	exact := linalg.MatMul(false, false, K, W)
	if d := linalg.RelFrobDiff(U, exact); d > 1e-4 {
		t.Fatalf("HSS matvec error %g", d)
	}
}

func TestMatvecLexicographicOrderStillWorks(t *testing.T) {
	// Without neighbors or permutation (the HODLR/STRUMPACK regime), the
	// Gaussian kernel on *sorted* 1-D points compresses fine; GOFMM must
	// handle the no-neighbor path (uniform sampling, HSS structure).
	n := 300
	X := linalg.NewMatrix(1, n)
	for i := 0; i < n; i++ {
		X.Set(0, i, float64(i)/float64(n))
	}
	K := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			d := X.At(0, i) - X.At(0, j)
			K.Set(i, j, math.Exp(-d*d/0.02))
		}
	}
	for i := 0; i < n; i++ {
		K.Add(i, i, 1e-8)
	}
	h, err := Compress(denseSPD{K}, Config{
		LeafSize: 32, MaxRank: 32, Tol: 1e-10, Distance: Lexicographic,
		Exec: Sequential, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	W := linalg.GaussianMatrix(rng, n, 2)
	U := h.Matvec(W)
	exact := linalg.MatMul(false, false, K, W)
	if d := linalg.RelFrobDiff(U, exact); d > 1e-5 {
		t.Fatalf("lexicographic matvec error %g", d)
	}
}

func TestAllExecutorsAgreeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	Kd, X := gaussKernelMatrix(rng, 350, 0.8)
	W := linalg.GaussianMatrix(rng, 350, 4)
	var ref *linalg.Matrix
	for _, mode := range []ExecMode{Sequential, LevelByLevel, Dynamic, TaskDepend} {
		h, err := Compress(denseSPD{Kd}, Config{
			LeafSize: 32, MaxRank: 24, Tol: 1e-7, Kappa: 8, Budget: 0.1,
			Distance: Geometric, Points: X, Exec: mode, Seed: 42,
			NumWorkers: 3, CacheBlocks: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		U := h.Matvec(W)
		if ref == nil {
			ref = U
			continue
		}
		if !linalg.EqualApprox(U, ref, 0) {
			t.Fatalf("executor %v result differs from sequential (max |Δ| = %g)",
				mode, maxAbsDiff(U, ref))
		}
	}
}

func maxAbsDiff(a, b *linalg.Matrix) float64 {
	d := a.Clone()
	d.AddScaled(-1, b)
	return d.MaxAbs()
}

func TestCachingDoesNotChangeResult(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	Kd, _ := gaussKernelMatrix(rng, 300, 0.8)
	W := linalg.GaussianMatrix(rng, 300, 3)
	var ref *linalg.Matrix
	for _, cache := range []bool{false, true} {
		h, err := Compress(denseSPD{Kd}, Config{
			LeafSize: 32, MaxRank: 24, Tol: 1e-7, Kappa: 8, Budget: 0.1,
			Distance: Angle, Exec: Sequential, Seed: 21, CacheBlocks: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		U := h.Matvec(W)
		if ref == nil {
			ref = U
		} else if !linalg.EqualApprox(U, ref, 0) {
			t.Fatal("caching changed the matvec result")
		}
	}
}

func TestMultiRHSMatchesSingle(t *testing.T) {
	h, _ := compressGauss(t, 300, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-7, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 6, CacheBlocks: true,
	})
	rng := rand.New(rand.NewSource(7))
	W := linalg.GaussianMatrix(rng, 300, 4)
	U := h.Matvec(W)
	scale := U.MaxAbs()
	for j := 0; j < 4; j++ {
		Wj := linalg.NewMatrix(300, 1)
		copy(Wj.Col(0), W.Col(j))
		Uj := h.Matvec(Wj)
		for i := 0; i < 300; i++ {
			// Identical operator, but the GEMM panel kernel sums in a
			// different order for 1- vs 4-column blocks: allow rounding.
			if math.Abs(Uj.At(i, 0)-U.At(i, j)) > 1e-12*scale {
				t.Fatalf("column %d differs from single-RHS result at row %d: %g vs %g",
					j, i, Uj.At(i, 0), U.At(i, j))
			}
		}
	}
}

func TestCompressedOperatorIsSymmetric(t *testing.T) {
	// GOFMM guarantees a symmetric K̃: apply to the identity and compare.
	n := 200
	h, _ := compressGauss(t, n, Config{
		LeafSize: 16, MaxRank: 16, Tol: 1e-4, Kappa: 8, Budget: 0.2,
		Distance: Angle, Exec: Sequential, Seed: 8, CacheBlocks: true,
	})
	Kt := h.Matvec(linalg.Eye(n))
	if d := linalg.RelFrobDiff(Kt.Transposed(), Kt); d > 1e-12 {
		t.Fatalf("K̃ not symmetric: %g", d)
	}
}

func TestAsymmetricModeStillExactCoverage(t *testing.T) {
	// ASKIT-style lists do not guarantee symmetry but must stay accurate.
	h, K := compressGauss(t, 300, Config{
		LeafSize: 32, MaxRank: 300, Tol: 1e-12, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 9, NoSymmetrize: true,
		SampleRows: 300,
	})
	rng := rand.New(rand.NewSource(10))
	W := linalg.GaussianMatrix(rng, 300, 2)
	U := h.Matvec(W)
	exact := linalg.MatMul(false, false, K, W)
	if d := linalg.RelFrobDiff(U, exact); d > 1e-8 {
		t.Fatalf("asymmetric-mode matvec error %g", d)
	}
}

func TestBudgetImprovesAccuracy(t *testing.T) {
	// The FMM-vs-HSS claim of Figure 6: with a small fixed rank, adding
	// direct evaluations (budget) improves accuracy.
	rng := rand.New(rand.NewSource(14))
	Kd, _ := gaussKernelMatrix(rng, 512, 0.25) // narrow bandwidth: high off-diag rank
	W := linalg.GaussianMatrix(rng, 512, 2)
	exact := linalg.MatMul(false, false, Kd, W)
	var errs []float64
	for _, budget := range []float64{0, 0.25} {
		h, err := Compress(denseSPD{Kd}, Config{
			LeafSize: 32, MaxRank: 8, Tol: 1e-12, Kappa: 16, Budget: budget,
			Distance: Kernel, Exec: Sequential, Seed: 15, CacheBlocks: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		U := h.Matvec(W)
		errs = append(errs, linalg.RelFrobDiff(U, exact))
	}
	if errs[1] >= errs[0] {
		t.Fatalf("budget did not improve accuracy: %v", errs)
	}
}

func TestSampleRelErrTracksTrueError(t *testing.T) {
	h, K := compressGauss(t, 400, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-3, Kappa: 8, Budget: 0.05,
		Distance: Kernel, Exec: Sequential, Seed: 16, CacheBlocks: true,
	})
	rng := rand.New(rand.NewSource(17))
	W := linalg.GaussianMatrix(rng, 400, 3)
	U := h.Matvec(W)
	exact := linalg.MatMul(false, false, K, W)
	trueErr := linalg.RelFrobDiff(U, exact)
	est := h.SampleRelErr(W, U, 100, 18)
	if trueErr > 1e-14 && (est > trueErr*10 || est < trueErr/10) {
		t.Fatalf("sampled ε₂ %g vs true %g", est, trueErr)
	}
}

func TestEntryErrors(t *testing.T) {
	h, _ := compressGauss(t, 200, Config{
		LeafSize: 16, MaxRank: 16, Tol: 1e-8, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 19, CacheBlocks: true,
	})
	rng := rand.New(rand.NewSource(20))
	W := linalg.GaussianMatrix(rng, 200, 1)
	U := h.Matvec(W)
	errs := h.EntryErrors(W, U, 10)
	if len(errs) != 10 {
		t.Fatalf("EntryErrors returned %d entries", len(errs))
	}
	// Relative per-entry errors can blow up where the exact entry is near
	// zero, so check the median rather than the max.
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	if med := sorted[len(sorted)/2]; math.IsNaN(med) || med > 1e-2 {
		t.Fatalf("median entry error %g (all: %v)", med, errs)
	}
}

func TestStatsPopulated(t *testing.T) {
	h, _ := compressGauss(t, 300, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-6, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 22, CacheBlocks: true,
	})
	rng := rand.New(rand.NewSource(23))
	h.Matvec(linalg.GaussianMatrix(rng, 300, 2))
	s := h.Stats
	if s.AvgRank <= 0 || s.CompressFlops <= 0 || s.EvalFlops <= 0 {
		t.Fatalf("stats not populated: %+v", s)
	}
	if s.DirectFrac <= 0 || s.DirectFrac > 1 {
		t.Fatalf("DirectFrac = %g", s.DirectFrac)
	}
	if s.CompressTime <= 0 || s.EvalTime <= 0 {
		t.Fatalf("times not recorded: %+v", s)
	}
	if s.MaxNear < 1 {
		t.Fatalf("MaxNear = %d", s.MaxNear)
	}
}

func TestExactMatvecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	K := linalg.RandomSPD(rng, 70, 10)
	W := linalg.GaussianMatrix(rng, 70, 3)
	got := ExactMatvec(denseSPD{K}, W)
	want := linalg.MatMul(false, false, K, W)
	if d := linalg.RelFrobDiff(got, want); d > 1e-12 {
		t.Fatalf("ExactMatvec error %g", d)
	}
}

func TestCompressErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	K := linalg.RandomSPD(rng, 10, 10)
	if _, err := Compress(denseSPD{K}, Config{Distance: Geometric}); err == nil {
		t.Fatal("expected ErrNeedPoints")
	}
	bad := linalg.GaussianMatrix(rng, 2, 5)
	if _, err := Compress(denseSPD{K}, Config{Distance: Geometric, Points: bad}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestSingleLeafDegenerateTree(t *testing.T) {
	// n ≤ leafSize: the tree is one leaf; K̃ must equal K exactly.
	rng := rand.New(rand.NewSource(26))
	K := linalg.RandomSPD(rng, 20, 10)
	h, err := Compress(denseSPD{K}, Config{
		LeafSize: 64, Distance: Kernel, Exec: Sequential, Seed: 27, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	W := linalg.GaussianMatrix(rng, 20, 2)
	U := h.Matvec(W)
	want := linalg.MatMul(false, false, K, W)
	if d := linalg.RelFrobDiff(U, want); d > 1e-13 {
		t.Fatalf("single-leaf matvec error %g", d)
	}
}

func TestMatvecPropertyLinear(t *testing.T) {
	// K̃ is a fixed linear operator: K̃(aW1 + bW2) = a·K̃W1 + b·K̃W2.
	h, _ := compressGauss(t, 256, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-5, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 28, CacheBlocks: true,
	})
	f := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e6 {
			a = 1.5
		}
		if math.IsNaN(b) || math.IsInf(b, 0) || math.Abs(b) > 1e6 {
			b = -0.5
		}
		rng := rand.New(rand.NewSource(seed))
		W1 := linalg.GaussianMatrix(rng, 256, 2)
		W2 := linalg.GaussianMatrix(rng, 256, 2)
		comb := W1.Clone()
		comb.Scale(a)
		comb.AddScaled(b, W2)
		U := h.Matvec(comb)
		U1 := h.Matvec(W1)
		U2 := h.Matvec(W2)
		U1.Scale(a)
		U1.AddScaled(b, U2)
		scale := math.Max(U.FrobeniusNorm(), 1)
		diff := U.Clone()
		diff.AddScaled(-1, U1)
		return diff.FrobeniusNorm()/scale < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// matvecInto is MatvecIntoCtx into a fresh caller-owned output.
func matvecInto(t *testing.T, h *Hierarchical, W *linalg.Matrix) *linalg.Matrix {
	t.Helper()
	U := linalg.NewMatrix(W.Rows, W.Cols)
	if err := h.MatvecIntoCtx(context.Background(), W, U); err != nil {
		t.Fatal(err)
	}
	return U
}

func TestMatvecIntoMatchesMatvec(t *testing.T) {
	for _, budget := range []float64{0, 0.15} {
		h, _ := compressGauss(t, 400, Config{
			LeafSize: 32, MaxRank: 24, Tol: 1e-6, Kappa: 8, Budget: budget,
			Distance: Kernel, Exec: Sequential, Seed: 150, CacheBlocks: true,
		})
		rng := rand.New(rand.NewSource(151))
		for trial := 0; trial < 3; trial++ {
			W := linalg.GaussianMatrix(rng, 400, 3)
			want := h.Matvec(W)
			got := matvecInto(t, h, W)
			if !linalg.EqualApprox(got, want, 0) {
				t.Fatalf("budget %g trial %d: MatvecIntoCtx differs (max |Δ| = %g)",
					budget, trial, maxAbsDiff(got, want))
			}
		}
	}
}

func TestMatvecIntoRepeatedCallsIndependent(t *testing.T) {
	h, _ := compressGauss(t, 300, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-6, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 152, CacheBlocks: true,
	})
	rng := rand.New(rand.NewSource(153))
	W := linalg.GaussianMatrix(rng, 300, 2)
	first := matvecInto(t, h, W)
	// A different input in between must not contaminate a repeat call.
	matvecInto(t, h, linalg.GaussianMatrix(rng, 300, 2))
	second := matvecInto(t, h, W)
	if !linalg.EqualApprox(first, second, 0) {
		t.Fatal("evaluation state leaked between calls")
	}
}

// TestMatvecIntoRejectsInvalidInput: a nil or mis-shaped input or output
// is a typed ErrInvalidInput, never a panic, with or without a plan.
func TestMatvecIntoRejectsInvalidInput(t *testing.T) {
	for _, cached := range []bool{false, true} {
		h, _ := compressGauss(t, 200, Config{
			LeafSize: 32, Kappa: 8, Budget: 0, Distance: Kernel,
			Exec: Sequential, Seed: 154, Tol: 1e-4, CacheBlocks: cached,
		})
		ctx := context.Background()
		for name, wu := range map[string][2]*linalg.Matrix{
			"nil W":    {nil, linalg.NewMatrix(200, 2)},
			"nil U":    {linalg.NewMatrix(200, 2), nil},
			"short W":  {linalg.NewMatrix(199, 2), linalg.NewMatrix(200, 2)},
			"narrow U": {linalg.NewMatrix(200, 3), linalg.NewMatrix(200, 2)},
			"short U":  {linalg.NewMatrix(200, 2), linalg.NewMatrix(199, 2)},
		} {
			if err := h.MatvecIntoCtx(ctx, wu[0], wu[1]); !errors.Is(err, resilience.ErrInvalidInput) {
				t.Fatalf("cached=%v %s: want ErrInvalidInput, got %v", cached, name, err)
			}
		}
	}
}
