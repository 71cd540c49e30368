// Command gofmmbench is GOFMM's benchmark: it builds, replays and serves a
// compressed kernel operator, checks every output, and prints one JSON
// result line. See README.md for the workloads and metrics.
//
//	bash bench/run.sh --workload serve|replay --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gofmm/internal/linalg"
	"gofmm/internal/workspace"
)

// workload fixes the operator size and how a run's --seconds are shared
// among its phases. Every workload runs every phase, because every run
// reports every end-to-end metric; the shares decide which phase gets most
// of the run, and the minimum sample counts below keep each figure
// supported whatever the shares.
type workload struct {
	name    string
	n       int
	setups  int     // life cycles run (setup_s is their median)
	replay  float64 // share of --seconds spent on the closed-loop replay phase
	serve   float64 // share spent on the open-loop serving phase
	refRate float64 // serving reference rate, a fifth to a third of capacity (requests/s)
	matvecs int     // width-1 products at least (p99 needs 1000)
}

var workloads = []workload{
	{name: "serve", n: 8192, setups: 3, replay: 0.15, serve: 0.85, refRate: 40, matvecs: 3000},
	{name: "replay", n: 12288, setups: 2, replay: 0.3, serve: 0.7, refRate: 33, matvecs: 2500},
}

// Minimum sample counts, whatever the time shares.
const (
	minTailSamples   = 1050 // a p99 with minBeyond samples beyond it, and some margin
	minMatmatSamples = 15
)

// rounds is how many slices the replay and reference-rate serving phases
// are cut into; rounds·cgPerRound is a multiple of cgSystems, so every CG
// system is solved equally often.
const rounds = 6

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// bench is one run's state.
type bench struct {
	w         workload
	seed      int64
	seconds   time.Duration
	traced    bool
	tr        *tracer
	pool      *workspace.Pool
	storePath string
	probe     *linalg.Matrix

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// share is the given share of the run's measuring time.
func (b *bench) share(f float64) time.Duration { return time.Duration(f * float64(b.seconds)) }

// check counts one checked operation and records a failure unless ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// tally adds operations checked elsewhere (the serving phase's requests).
func (b *bench) tally(attempted, failed int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted += attempted
	b.failed += failed
	if failed > 0 && len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf("%d of %d requests failed", failed, attempted))
	}
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve or replay")
		seed    = flag.Int64("seed", 1, "data seed: points, right-hand sides and arrivals")
		seconds = flag.Int("seconds", 30, "measuring time of one run")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		workdir = flag.String("workdir", ".bench_build/work", "directory for store files, traces and results")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "gofmmbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "gofmmbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, workdir string) error {
	var w workload
	for _, c := range workloads {
		if c.name == name {
			w = c
		}
	}
	if w.name == "" {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	tmp := filepath.Join(workdir, "tmp-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	hst := probeHost()
	hb, _ := json.Marshal(hst)
	fmt.Printf("host %s\n", hb)

	b := &bench{
		w: w, seed: seed, seconds: time.Duration(seconds) * time.Second,
		traced: traced, pool: workspace.New(),
		storePath: filepath.Join(tmp, opName+".store"),
		probe:     vectors(w.n, 1, seed+7)[0],
	}
	if traced {
		b.tr = newTracer()
	}
	vals, err := b.measure(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("working set: store.bytes %.1f MiB against L2 %s, L3 %s\n",
		vals["store.bytes"]/(1<<20), hst.L2, hst.L3)

	resDir := filepath.Join(workdir, "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return err
	}
	key := fmt.Sprintf("%s-%d", w.name, seed)
	names := endToEnd
	if traced {
		names = perLayer
		if err := b.tr.write(filepath.Join(resDir, key+".trace.json"), hst); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", b.tr.count(), filepath.Join(resDir, key+".trace.json"))
		printOverhead(resDir, w.name, key, vals)
	} else if err := saveEndToEnd(filepath.Join(resDir, key+".json"), hst, vals); err != nil {
		return err
	}

	metrics, missing := metricValues(names, vals)
	for _, m := range missing {
		b.check(false, "metric %s was not measured", m)
	}
	for _, f := range b.failures {
		fmt.Println("FAILED:", f)
	}
	out, err := json.Marshal(result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricValues picks the named metrics out of vals, with their units, and
// lists the names that were not measured (absent or not finite).
func metricValues(names []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := map[string]metricValue{}
	var missing []string
	for _, m := range names {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.name)
			continue
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out, missing
}

// measure runs every phase and returns every metric it could compute.
func (b *bench) measure(ctx context.Context) (map[string]float64, error) {
	v := map[string]float64{}
	root := b.tr.start("bench.run", nil, 0)
	defer root.end()
	start := time.Now()

	// Set-up: life cycles of the operator. The first gives the operator
	// that the replay and serving phases use; the others run between the
	// rounds below, so that set-up time samples the whole run too. Each
	// later cycle's operator is dropped once checked.
	var cycles []*built
	var setup sample
	cycle := func() error {
		c, err := b.cycle(ctx, root)
		if err != nil {
			return err
		}
		if len(cycles) > 0 {
			c.h = nil
		}
		cycles = append(cycles, c)
		setup = append(setup, c.setupS)
		return nil
	}
	if err := cycle(); err != nil {
		return nil, err
	}
	measureStart := time.Now()
	last := cycles[0]

	// The replay phase (closed loop, in-memory operator) and the serving
	// phase's reference-rate part (open loop, mmap-loaded store) alternate
	// in rounds, so each samples the whole run rather than one stretch of
	// it, and a burst of load from elsewhere on the host weighs on every
	// metric alike.
	rp, err := b.newReplayer(ctx, last.h, root)
	if err != nil {
		return nil, err
	}
	sv, err := b.startServing(ctx, last, root)
	if err != nil {
		return nil, err
	}
	replayDur := b.share(b.w.replay) / rounds
	chunk := max(ceilDiv(minTailSamples, rounds), int(math.Round(b.w.refRate*b.share(b.w.serve).Seconds()/rounds)))
	for k := 0; k < rounds; k++ {
		if len(cycles) < b.w.setups && k >= len(cycles)*rounds/b.w.setups {
			if err := cycle(); err != nil {
				return nil, err
			}
		}
		rp.slice(ctx, ceilDiv(b.w.matvecs, rounds), ceilDiv(minMatmatSamples, rounds), replayDur)
		b.refChunk(ctx, sv, chunk)
	}
	b.cycleMetrics(v, cycles)
	v["setup_s"] = setup.median()
	rr := &rp.res
	v["matvec_p50_ms"] = rr.r1MS.median()
	v["matvec_p99_ms"], _ = rr.r1MS.at(0.99)
	v["matmat16_p50_ms"] = rr.r16MS.median()
	v["solve_s"] = rr.solveTime()
	v["krylov.cg_iters"] = float64(rr.cgIters)
	v["krylov.cg_residual"] = rr.cgResidual
	if err := b.finishServing(ctx, sv, last, v); err != nil {
		return nil, err
	}

	if b.traced {
		if err := b.probes(ctx, last, v, root); err != nil {
			return nil, err
		}
		self := b.tr.selfTimes()
		for _, l := range layersWithSpans {
			v[l+".self_s"] = self[l]
		}
	}
	v["mem_mb"] = peakRSSMiB()
	v["fail_frac"] = float64(b.failed) / float64(max(b.attempted, 1))
	printSamples(b, cycles, rr, setup, time.Since(start), time.Since(measureStart))
	return v, nil
}

// cycleMetrics reduces the life cycles to their metrics: medians of the
// timings, the first cycle's counts (identical in every cycle at one seed).
func (b *bench) cycleMetrics(v map[string]float64, cycles []*built) {
	var comp, cold, compile, save, load, first, lists, skel, cache, busy sample
	for _, c := range cycles {
		comp = append(comp, c.compressS)
		cold = append(cold, c.coldMS)
		compile = append(compile, c.compileMS)
		save = append(save, c.saveMS)
		load = append(load, c.loadMS)
		first = append(first, c.firstMatvecMS)
		lists = append(lists, c.listsS)
		skel = append(skel, c.skelS)
		cache = append(cache, c.cacheS)
		busy = append(busy, c.busyFrac)
	}
	last := cycles[0]
	v["compress_s"] = comp.median()
	v["cold_start_ms"] = cold.median()
	v["eps2"] = last.eps2
	v["plan.compile_ms"] = compile.median()
	v["store.save_ms"] = save.median()
	v["store.load_ms"] = load.median()
	v["store.first_matvec_ms"] = first.median()
	v["store.bytes"] = float64(last.storeBytes)
	v["core.lists_s"] = lists.median()
	v["core.skel_s"] = skel.median()
	v["core.cache_s"] = cache.median()
	v["core.oracle_entries"] = float64(last.oracleEntries)
	v["core.avg_rank"] = last.avgRank
	v["core.direct_frac"] = last.directFrac
	v["sched.busy_frac"] = busy.median()
	for _, c := range cycles[1:] {
		b.check(c.oracleEntries == cycles[0].oracleEntries && c.eps2 == cycles[0].eps2 &&
			sameBits(c.probeOut, cycles[0].probeOut),
			"cycles of one seed differ: %d vs %d oracle entries, eps2 %g vs %g, or another first matvec",
			c.oracleEntries, cycles[0].oracleEntries, c.eps2, cycles[0].eps2)
	}
}

// printSamples states the sample count behind each end-to-end timing.
func printSamples(b *bench, cycles []*built, rr *replayResult, setup sample, total, measured time.Duration) {
	fmt.Printf("workload %s: n=%d seed=%d traced=%v run %.1fs (measured %.1fs)\n",
		b.w.name, b.w.n, b.seed, b.traced, total.Seconds(), measured.Seconds())
	fmt.Printf("samples: setup_s %d, compress_s/cold_start_ms %d cycles, matvec %d, matmat16 %d, solve %d\n",
		len(setup), len(cycles), len(rr.r1MS), len(rr.r16MS), len(rr.solveS))
	if q, t, ok := rr.r1MS.tail(); ok {
		fmt.Printf("matvec tail: p%g = %.4g ms over %d samples\n", q*100, t, len(rr.r1MS))
	}
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.Sys) / (1 << 20)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// record is what a run keeps on disk besides its spans.
type record struct {
	Host    host               `json:"host"`
	Metrics map[string]float64 `json:"metrics"`
}

// saveEndToEnd keeps an untraced run's end-to-end figures, with its host,
// so a traced run of the same workload can state its overhead.
func saveEndToEnd(path string, hst host, vals map[string]float64) error {
	rec := record{Host: hst, Metrics: map[string]float64{}}
	for _, m := range endToEnd {
		rec.Metrics[m.name] = vals[m.name]
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// printOverhead states tracing overhead as traced minus untraced on every
// end-to-end metric, against the untraced run of this workload and seed in
// the same checkout, or else the newest untraced run of this workload.
func printOverhead(dir, workload, key string, traced map[string]float64) {
	path := filepath.Join(dir, key+".json")
	if _, err := os.Stat(path); err != nil {
		path = ""
		var newest time.Time
		all, _ := filepath.Glob(filepath.Join(dir, workload+"-*.json"))
		for _, p := range all {
			fi, err := os.Stat(p)
			if err == nil && !strings.HasSuffix(p, ".trace.json") && fi.ModTime().After(newest) {
				path, newest = p, fi.ModTime()
			}
		}
	}
	var base record
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &base)
	}
	if err != nil {
		fmt.Printf("tracing overhead: no untraced run of workload %s in %s to compare with\n", workload, dir)
		return
	}
	var parts []string
	for _, m := range endToEnd {
		u, t := base.Metrics[m.name], traced[m.name]
		if u == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %+.4g %s (%+.1f%%)", m.name, t-u, m.unit, 100*(t-u)/u))
	}
	fmt.Printf("tracing overhead (traced minus untraced %s): %s\n", filepath.Base(path), strings.Join(parts, ", "))
}
