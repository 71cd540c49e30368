// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) at laptop scale. Each Fig*/Table* function runs the
// workloads, prints rows in the shape the paper reports (who wins, by what
// factor, where the crossovers are) and returns the structured results so
// the benchmark harness and EXPERIMENTS.md generation can consume them.
//
// Scaling note: problem sizes default to a few thousand (vs 36K–500K in the
// paper) and the worker counts are goroutine pools on whatever cores exist;
// absolute times differ from the paper's Haswell/KNL/P100 numbers but the
// comparisons are preserved. See DESIGN.md for the substitution table.
package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/spdmat"
)

// Result is one measured row of an experiment.
type Result struct {
	Experiment string
	Case       string
	Scheme     string
	N, Workers int
	Rank       int // configured max rank s
	Budget     float64
	Eps        float64
	CompressS  float64
	EvalS      float64
	CompressGF float64
	EvalGF     float64
	AvgRank    float64
	DirectFrac float64
}

// Row flattens the result into the generic row shape telemetry.RunRecord
// stores. The keys are stable: the CI artifact validation and any offline
// tooling key on them.
func (r Result) Row() map[string]any {
	row := map[string]any{
		"case": r.Case, "n": r.N, "workers": r.Workers,
		"rank": r.Rank, "budget": r.Budget, "eps2": r.Eps,
		"compress_seconds": r.CompressS, "eval_seconds": r.EvalS,
		"compress_gflops": r.CompressGF, "eval_gflops": r.EvalGF,
		"avg_rank": r.AvgRank, "direct_frac": r.DirectFrac,
	}
	if r.Experiment != "" {
		row["experiment"] = r.Experiment
	}
	if r.Scheme != "" {
		row["scheme"] = r.Scheme
	}
	return row
}

// Problem wraps a generated SPD problem plus its dense form when available.
type Problem struct {
	*spdmat.Problem
}

// GetProblem generates a named spdmat problem (panicking on unknown names —
// the callers enumerate the registry).
func GetProblem(name string, n int, seed int64) Problem {
	p, err := spdmat.Generate(name, n, seed)
	if err != nil {
		panic(err)
	}
	return Problem{p}
}

// Run compresses the problem with cfg, evaluates r right-hand sides, and
// returns the Result row (ε₂ from 100 sampled rows, per Eq. 11). The
// evaluation runs the tree interpreter under cfg.Exec rather than the
// compiled plan, so each row times the executor it names (Fig. 4, Table 5).
func Run(p Problem, cfg core.Config, r int, seed int64) Result {
	if cfg.Points == nil {
		cfg.Points = p.Points
	}
	h, err := core.Compress(p.K, cfg)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", p.Name, err))
	}
	rng := rand.New(rand.NewSource(seed))
	W := linalg.GaussianMatrix(rng, p.K.Dim(), r)
	U := h.InterpMatvec(W)
	eps := h.SampleRelErr(W, U, 100, seed+1)
	evalS, evalFlops := h.LastEval()
	res := Result{
		Case:       p.Name,
		N:          p.K.Dim(),
		Workers:    cfg.NumWorkers,
		Rank:       cfg.MaxRank,
		Budget:     cfg.Budget,
		Eps:        eps,
		CompressS:  h.Stats.CompressTime,
		EvalS:      evalS,
		AvgRank:    h.Stats.AvgRank,
		DirectFrac: h.Stats.DirectFrac,
	}
	if h.Stats.CompressTime > 0 {
		res.CompressGF = h.Stats.CompressFlops / h.Stats.CompressTime / 1e9
	}
	if evalS > 0 {
		res.EvalGF = evalFlops / evalS / 1e9
	}
	return res
}

// DenseKernel materializes an on-the-fly kernel problem as a dense matrix
// (for the SGEMM baseline of Figure 1 and exact-error checks).
func DenseKernel(p Problem) *linalg.Matrix {
	n := p.K.Dim()
	M := linalg.NewMatrix(n, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if b, ok := p.K.(interface {
		Submatrix(I, J []int, dst *linalg.Matrix)
	}); ok {
		b.Submatrix(idx, idx, M)
		return M
	}
	for j := 0; j < n; j++ {
		col := M.Col(j)
		for i := 0; i < n; i++ {
			col[i] = p.K.At(i, j)
		}
	}
	return M
}

// header prints an aligned column header.
func header(w io.Writer, cols ...string) {
	for _, c := range cols {
		fmt.Fprintf(w, "%-17s", c)
	}
	fmt.Fprintln(w)
}

func cell(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "%-17s", fmt.Sprintf(format, args...))
}

func endRow(w io.Writer) { fmt.Fprintln(w) }

// randNew returns a seeded RNG (helper for the traced runs).
func randNew(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
