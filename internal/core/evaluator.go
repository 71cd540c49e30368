package core

import (
	"context"
	"fmt"
	"time"

	"gofmm/internal/linalg"
	"gofmm/internal/plan"
	"gofmm/internal/resilience"
)

// Evaluator is a handle for repeated matvecs with a fixed number of
// right-hand sides — the iterative-solver workload (CG, block Krylov, Monte
// Carlo sampling) where per-call allocation would otherwise dominate at
// small r. With the compiled plan installed (every CacheBlocks compression)
// MatvecInto replays it on the calling goroutine through the plan's pooled
// arena and performs no heap allocation in steady state. Without a plan it
// evaluates through the tree interpreter and copies the result into U.
type Evaluator struct {
	h *Hierarchical
	r int
}

// NewEvaluator returns an evaluation handle for Matvec calls with r
// right-hand sides. Construction is O(1): replay arenas belong to the plan.
func (h *Hierarchical) NewEvaluator(r int) *Evaluator {
	return &Evaluator{h: h, r: r}
}

// Close ends the evaluator's use. It owns no buffers of its own, so Close
// only marks the end of the handle's lifetime; the evaluator must not be
// used afterwards.
func (e *Evaluator) Close() {}

// Matvec computes U ≈ K·W into a fresh output. W must have exactly the
// configured number of columns.
func (e *Evaluator) Matvec(W *linalg.Matrix) *linalg.Matrix {
	U := linalg.NewMatrix(e.h.K.Dim(), e.r)
	e.MatvecInto(W, U)
	return U
}

// MatvecInto computes U ≈ K·W into the caller-provided U (n×r), allocating
// nothing in steady state when a plan is installed. W and U may not alias.
// It is the uncancellable form of MatvecIntoCtx and panics on the errors
// MatvecIntoCtx would return.
func (e *Evaluator) MatvecInto(W, U *linalg.Matrix) {
	if err := e.MatvecIntoCtx(context.Background(), W, U); err != nil {
		panic(err)
	}
}

// MatvecIntoCtx is MatvecInto with cancellation and typed errors: a W or U
// of the wrong shape returns ErrInvalidInput.
func (e *Evaluator) MatvecIntoCtx(ctx context.Context, W, U *linalg.Matrix) error {
	h := e.h
	n := h.K.Dim()
	if W.Rows != n || W.Cols != e.r || U.Rows != n || U.Cols != e.r {
		return fmt.Errorf("%w: core: Evaluator.Matvec with %d×%d input and %d×%d output, want %d×%d",
			resilience.ErrInvalidInput, W.Rows, W.Cols, U.Rows, U.Cols, n, e.r)
	}
	p := h.evalPlan.Load()
	if p == nil {
		V, err := h.evalBlock(ctx, W, "matvec")
		if err != nil {
			return err
		}
		U.CopyFrom(V)
		return nil
	}
	start := time.Now()
	opts := plan.ExecOptions{Workers: 1, Pool: h.Cfg.Workspace, Telemetry: h.Cfg.Telemetry}
	if err := p.Execute(ctx, W, U, opts); err != nil {
		return err
	}
	h.noteEval(time.Since(start).Seconds(), p.FlopsPerCol()*float64(e.r))
	return nil
}
