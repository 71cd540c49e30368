package experiments

import (
	"io"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/sched"
)

// Table5 reproduces Table 5 (#27–#46): GOFMM across "architectures". The
// paper's four platforms map to worker-pool configurations (see DESIGN.md):
//
//	ARM   → 1 plain worker (a small, slow node)
//	CPU   → 4 homogeneous workers
//	CPU+GPU → 4 workers + 1 fat accelerator worker (8× speed estimate,
//	          4 nested slots, batches of 8, no stealing — §2.3's device)
//	KNL   → 8 thin workers (many-core, weaker per-core)
//
// Rows report ε₂, compression and evaluation time, and achieved GFLOPS, so
// the paper's observation — GEMM-heavy tasks (L2L) belong on the fat
// worker, small-rank tasks (N2S/S2N) on plain cores — can be read off the
// scheduling outcome.
func Table5(w io.Writer, n int, seed int64) []Result {
	archs := []struct {
		name  string
		specs []sched.WorkerSpec
	}{
		{"ARM-like", sched.Homogeneous(1)},
		{"CPU", sched.Homogeneous(4)},
		{"CPU+ACC", append(sched.Homogeneous(4),
			sched.WorkerSpec{Speed: 8, Slots: 4, Batch: 8, NoSteal: true, Accelerator: true})},
		{"KNL-like", sched.Homogeneous(8)},
	}
	cases := []struct {
		prob    string
		m, s, r int
		budget  float64
	}{
		{"MNIST", 128, 64, 64, 0.05},
		{"COVTYPE", 128, 128, 128, 0.12},
		{"HIGGS", 128, 64, 128, 0.003},
		{"K02", 128, 128, 128, 0.03},
		{"K15", 128, 128, 128, 0.10},
		{"G03", 64, 128, 128, 0.03},
		{"G04", 128, 128, 128, 0.03},
	}
	header(w, "case", "arch", "eps2", "compress(s)", "GFs", "eval(s)", "GFs", "L2L@acc")
	var out []Result
	for _, c := range cases {
		p := GetProblem(c.prob, n, seed)
		for _, a := range archs {
			cfg := core.Config{
				LeafSize: c.m, MaxRank: c.s, Tol: 1e-5, Kappa: 32,
				Budget: c.budget, Distance: core.Angle, Exec: core.Dynamic,
				WorkerSpecs: a.specs, CacheBlocks: true, Seed: seed,
				CaptureTrace: a.name == "CPU+ACC",
			}
			res, placed := runTraced(p, cfg, c.r, seed)
			res.Experiment = "table5"
			res.Scheme = a.name
			out = append(out, res)
			cell(w, "%s", c.prob)
			cell(w, "%s", a.name)
			cell(w, "%.1e", res.Eps)
			cell(w, "%.3f", res.CompressS)
			cell(w, "%.2f", res.CompressGF)
			cell(w, "%.4f", res.EvalS)
			cell(w, "%.2f", res.EvalGF)
			if a.name == "CPU+ACC" {
				cell(w, "%.0f%%", 100*placed)
			} else {
				cell(w, "%s", "-")
			}
			endRow(w)
		}
	}
	return out
}

// runTraced runs the workload and, when tracing is on, reports the fraction
// of L2L tasks placed on accelerator workers — the paper's #45 observation
// ("we enforce our scheduler to schedule L2L tasks to the GPU").
func runTraced(p Problem, cfg core.Config, r int, seed int64) (Result, float64) {
	if !cfg.CaptureTrace {
		return Run(p, cfg, r, seed), 0
	}
	if cfg.Points == nil {
		cfg.Points = p.Points
	}
	h, err := core.Compress(p.K, cfg)
	if err != nil {
		panic(err)
	}
	res := Run(p, cfg, r, seed) // timing row from a clean run
	// Placement from a traced interpreter evaluation of the same
	// compression (the compiled plan has no per-task placement).
	W := linalg.GaussianMatrix(randNew(seed), p.K.Dim(), r)
	h.InterpMatvec(W)
	accel := map[int]bool{}
	for wIdx, spec := range cfg.WorkerSpecs {
		if spec.Accelerator {
			accel[wIdx] = true
		}
	}
	l2l, on := 0, 0
	for _, ev := range h.LastTrace {
		if len(ev.Task.Label) >= 3 && ev.Task.Label[:3] == "L2L" {
			l2l++
			if accel[ev.Worker] {
				on++
			}
		}
	}
	if l2l == 0 {
		return res, 0
	}
	return res, float64(on) / float64(l2l)
}
