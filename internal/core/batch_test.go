package core

// Concurrency tests for the request-coalescing BatchEvaluator, written to
// run under -race: many goroutines with mixed block widths, mid-flight
// cancellation, a panicking oracle, and Close under traffic. The invariant throughout: every accepted request receives
// either exactly its own correct columns or a typed error — never a hang,
// never another request's data.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/telemetry"
)

// batchTestOperator compresses a small Gauss-kernel problem with the
// dynamic executor, chaos-injected task failures (exercising the scheduler
// retry path during compression) and telemetry. The injector is cleared
// afterwards: batched evaluations replay the compiled plan, which does not
// retry, so an injected fault would fail its flush by design (the contract
// TestPlanReplayInjectedPanicBecomesTypedError pins).
func batchTestOperator(t *testing.T) *Hierarchical {
	t.Helper()
	rec := telemetry.New()
	chaos := resilience.NewChaos(resilience.ChaosConfig{Seed: 5, TaskFail: 0.05}, rec)
	h, _ := compressGauss(t, 192, Config{
		LeafSize: 32, MaxRank: 32, Tol: 1e-5, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Dynamic, NumWorkers: 2, Seed: 1,
		CacheBlocks: true, Telemetry: rec, Chaos: chaos,
	})
	h.Cfg.Workspace = nil // pool attached per test where wanted
	h.Cfg.Chaos = nil
	return h
}

func TestBatchEvaluatorConcurrentMixedSizes(t *testing.T) {
	h := batchTestOperator(t)
	n := h.K.Dim()
	const goroutines = 64
	const perG = 3

	// Precompute every request block and its reference result serially
	// (h.Matvec writes shared Stats, so references cannot be computed
	// concurrently with the batched traffic).
	type job struct {
		W, want *linalg.Matrix
	}
	jobs := make([][]job, goroutines)
	for g := 0; g < goroutines; g++ {
		rng := rand.New(rand.NewSource(int64(1000 + g)))
		jobs[g] = make([]job, perG)
		for k := 0; k < perG; k++ {
			width := 1 + (g+k)%3 // mixed widths 1..3
			W := linalg.GaussianMatrix(rng, n, width)
			jobs[g][k] = job{W: W, want: h.Matvec(W)}
		}
	}

	ev := h.NewBatchEvaluator(BatchOptions{MaxBatch: 16, MaxDelay: 2 * time.Millisecond})
	defer ev.Close()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range jobs[g] {
				U, err := ev.Matvec(context.Background(), jobs[g][k].W)
				if err != nil {
					errs <- err
					return
				}
				want := jobs[g][k].want
				for j := 0; j < want.Cols; j++ {
					if d := maxAbsDiff(U, want); d > 1e-12 {
						t.Errorf("goroutine %d request %d: batched result off by %.3e (cross-request bleed?)", g, k, d)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("unexpected request error: %v", err)
	}
	st := ev.Stats()
	if got, want := st.Requests, int64(goroutines*perG); got != want {
		t.Errorf("Stats.Requests = %d, want %d", got, want)
	}
	if st.Flushes < 1 || st.Flushes > st.Requests {
		t.Errorf("Stats.Flushes = %d out of range [1, %d]", st.Flushes, st.Requests)
	}
	t.Logf("coalescing: %d requests (%d columns) in %d flushes (%.1f req/flush)",
		st.Requests, st.Columns, st.Flushes, float64(st.Requests)/float64(st.Flushes))
	snap := h.Cfg.Telemetry.Snapshot()
	if snap.Counters["batch.flushes"] != st.Flushes {
		t.Errorf("telemetry batch.flushes = %d, want %d", snap.Counters["batch.flushes"], st.Flushes)
	}
	if snap.Counters["batch.requests"] != st.Requests {
		t.Errorf("telemetry batch.requests = %d, want %d", snap.Counters["batch.requests"], st.Requests)
	}
}

// panicSPD panics inside At while armed — standing in for a kernel bug
// surfacing mid-evaluation (reachable because CacheBlocks is off, so the
// passes gather oracle entries on the fly).
type panicSPD struct {
	SPD
	armed atomic.Bool
}

func (p *panicSPD) At(i, j int) float64 {
	if p.armed.Load() {
		panic("injected oracle panic")
	}
	return p.SPD.At(i, j)
}

func TestBatchEvaluatorPanicIsTypedAndContained(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	K, X := gaussKernelMatrix(rng, 128, 0.8)
	oracle := &panicSPD{SPD: denseSPD{K}}
	h, err := Compress(oracle, Config{
		LeafSize: 32, MaxRank: 32, Tol: 1e-5, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 1, Points: X,
		CacheBlocks: false, // evaluation consults the oracle
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := h.NewBatchEvaluator(BatchOptions{MaxBatch: 8, MaxDelay: time.Millisecond})
	defer ev.Close()
	W := linalg.GaussianMatrix(rng, 128, 1)

	oracle.armed.Store(true)
	_, err = ev.Matvec(context.Background(), W)
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *resilience.PanicError from panicking batch, got %v", err)
	}
	oracle.armed.Store(false)

	// The flusher must have survived: the next request is served normally.
	U, err := ev.Matvec(context.Background(), W)
	if err != nil {
		t.Fatalf("evaluator did not recover after a batch panic: %v", err)
	}
	if d := maxAbsDiff(U, h.Matvec(W)); d > 1e-12 {
		t.Fatalf("post-panic result off by %.3e", d)
	}
}

func TestBatchEvaluatorCancellation(t *testing.T) {
	h := batchTestOperator(t)
	n := h.K.Dim()
	ev := h.NewBatchEvaluator(BatchOptions{MaxBatch: 4, MaxDelay: 50 * time.Millisecond})
	defer ev.Close()
	rng := rand.New(rand.NewSource(4))
	W := linalg.GaussianMatrix(rng, n, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ev.Matvec(ctx, W); !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("pre-cancelled request: want ErrCancelled, got %v", err)
	}

	// A request whose deadline fires while it waits in the coalescing
	// window (no peers arrive, MaxDelay ≫ deadline) gets ErrTimeout.
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := ev.Matvec(ctx, W); err != nil && !errors.Is(err, resilience.ErrTimeout) {
		t.Fatalf("deadline during coalescing: want nil or ErrTimeout, got %v", err)
	}

	// Invalid input is rejected up front with the typed sentinel.
	if _, err := ev.Matvec(context.Background(), linalg.NewMatrix(n+1, 1)); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Fatalf("dimension mismatch: want ErrInvalidInput, got %v", err)
	}
}

func TestBatchEvaluatorCloseUnderTraffic(t *testing.T) {
	h := batchTestOperator(t)
	n := h.K.Dim()
	ev := h.NewBatchEvaluator(BatchOptions{MaxBatch: 8, MaxDelay: time.Millisecond})
	rng := rand.New(rand.NewSource(12))
	W := linalg.GaussianMatrix(rng, n, 1)
	want := h.Matvec(W)

	const goroutines = 16
	var wg sync.WaitGroup
	var served, closedErr, cancelled atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				U, err := ev.Matvec(context.Background(), W)
				switch {
				case err == nil:
					if d := maxAbsDiff(U, want); d > 1e-12 {
						t.Errorf("served result off by %.3e", d)
					}
					served.Add(1)
				case errors.Is(err, ErrEvaluatorClosed):
					closedErr.Add(1)
					return
				case errors.Is(err, resilience.ErrCancelled):
					cancelled.Add(1)
				default:
					t.Errorf("unexpected error under Close: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(3 * time.Millisecond)
	ev.Close()
	ev.Close() // idempotent
	wg.Wait()
	if _, err := ev.Matvec(context.Background(), W); !errors.Is(err, ErrEvaluatorClosed) {
		t.Fatalf("Matvec after Close: want ErrEvaluatorClosed, got %v", err)
	}
	t.Logf("served %d, closed %d, cancelled %d", served.Load(), closedErr.Load(), cancelled.Load())
	if served.Load() == 0 {
		t.Error("no request was served before Close")
	}
}

// TestBatchEvaluatorWideRequest submits a block wider than MaxBatch: it
// must be accepted and served whole (the window closes immediately).
func TestBatchEvaluatorWideRequest(t *testing.T) {
	h := batchTestOperator(t)
	n := h.K.Dim()
	ev := h.NewBatchEvaluator(BatchOptions{MaxBatch: 4, MaxDelay: time.Millisecond})
	defer ev.Close()
	rng := rand.New(rand.NewSource(21))
	W := linalg.GaussianMatrix(rng, n, 11)
	want := h.Matvec(W)
	U, err := ev.Matvec(context.Background(), W)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(U, want); d > 1e-12 {
		t.Fatalf("wide request off by %.3e", d)
	}
}

// TestBatchEvaluatorConcurrentClose hammers Close from many goroutines
// while traffic is in flight: every Close must return (no deadlock), the
// evaluator must report Closed, and post-close submissions must all get
// the typed sentinel.
func TestBatchEvaluatorConcurrentClose(t *testing.T) {
	h := batchTestOperator(t)
	n := h.K.Dim()
	ev := h.NewBatchEvaluator(BatchOptions{MaxBatch: 8, MaxDelay: time.Millisecond})
	if ev.Closed() {
		t.Fatal("fresh evaluator reports Closed")
	}
	rng := rand.New(rand.NewSource(31))
	W := linalg.GaussianMatrix(rng, n, 1)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				_, err := ev.Matvec(context.Background(), W)
				if err != nil && !errors.Is(err, ErrEvaluatorClosed) {
					t.Errorf("racing Matvec: want nil or ErrEvaluatorClosed, got %v", err)
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev.Close()
		}()
	}
	wg.Wait()
	if !ev.Closed() {
		t.Fatal("evaluator does not report Closed after Close")
	}
	if _, err := ev.Matvec(context.Background(), W); !errors.Is(err, ErrEvaluatorClosed) {
		t.Fatalf("post-close Matvec: want ErrEvaluatorClosed, got %v", err)
	}
}
