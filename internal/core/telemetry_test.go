package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/telemetry"
)

// instrumentedRun compresses a small Gaussian kernel with a recorder
// attached and runs one matvec, returning the recorder.
func instrumentedRun(t *testing.T, exec ExecMode) (*telemetry.Recorder, *Hierarchical) {
	t.Helper()
	rec := telemetry.New()
	h, _ := compressGauss(t, 300, Config{
		LeafSize: 32, MaxRank: 32, Tol: 1e-7, Kappa: 8,
		Budget: 0.05, Distance: Kernel, Exec: exec, Seed: 5,
		NumWorkers: 2, Telemetry: rec,
	})
	rng := rand.New(rand.NewSource(7))
	h.Matvec(linalg.GaussianMatrix(rng, 300, 2))
	return rec, h
}

func TestTelemetryCompressSpans(t *testing.T) {
	rec, h := instrumentedRun(t, Dynamic)
	snap := rec.Snapshot()

	// Compression phases must appear as children of the "compress" span and
	// agree with the legacy Stats fields (same clock, same numbers).
	for phase, want := range map[string]float64{
		"ann":   h.Stats.ANNTime,
		"tree":  h.Stats.TreeTime,
		"lists": h.Stats.ListsTime,
		"skel":  h.Stats.SkelTime,
	} {
		got := rec.PhaseSeconds("compress", phase)
		if got <= 0 {
			t.Fatalf("missing compress/%s span", phase)
		}
		if got != want {
			t.Fatalf("compress/%s: span %gs vs Stats %gs", phase, got, want)
		}
	}
	if got := rec.PhaseSeconds("compress"); got != h.Stats.CompressTime {
		t.Fatalf("compress span %g vs Stats.CompressTime %g", got, h.Stats.CompressTime)
	}

	// The oracle wrapper must have counted entry traffic.
	if snap.Counters["oracle.entries"] == 0 {
		t.Fatal("oracle.entries counter is zero")
	}
	// Skeletonization must have filled the rank histogram.
	hs, ok := snap.Histograms["skel.rank"]
	if !ok || hs.Count == 0 {
		t.Fatal("skel.rank histogram missing or empty")
	}
	if hs.Max > float64(h.Cfg.MaxRank) {
		t.Fatalf("skel.rank max %g exceeds MaxRank %d", hs.Max, h.Cfg.MaxRank)
	}
}

// hasSpan reports whether the snapshot's span forest contains the path.
func hasSpan(spans []telemetry.SpanStat, path ...string) bool {
	for _, name := range path {
		var found *telemetry.SpanStat
		for i := range spans {
			if spans[i].Name == name {
				found = &spans[i]
				break
			}
		}
		if found == nil {
			return false
		}
		spans = found.Children
	}
	return true
}

func TestTelemetryMatvecPassesAllExecutors(t *testing.T) {
	for _, exec := range []ExecMode{Sequential, LevelByLevel, Dynamic, TaskDepend} {
		rec, _ := instrumentedRun(t, exec)
		spans := rec.Snapshot().Spans
		for _, pass := range []string{"N2S", "S2S", "S2N", "L2L"} {
			if !hasSpan(spans, "matvec", pass) {
				t.Fatalf("%v: missing matvec/%s span", exec, pass)
			}
		}
		snap := rec.Snapshot()
		if snap.Counters["matvec.calls"] != 1 {
			t.Fatalf("%v: matvec.calls = %d", exec, snap.Counters["matvec.calls"])
		}
		if snap.Counters["matvec.flops"] == 0 {
			t.Fatalf("%v: matvec.flops is zero", exec)
		}
	}
}

func TestTelemetryTaskEventsAndLastTrace(t *testing.T) {
	// A recorder alone (no CaptureTrace) must populate both the recorder's
	// task events and the legacy LastTrace field.
	rec, h := instrumentedRun(t, Dynamic)
	if len(h.LastTrace) == 0 {
		t.Fatal("LastTrace empty despite attached recorder")
	}
	evs := rec.TaskEvents()
	if len(evs) == 0 {
		t.Fatal("no task events recorded")
	}
	kinds := map[string]bool{}
	for _, ev := range evs {
		if ev.Worker < 0 || ev.Worker >= 2 {
			t.Fatalf("task event worker %d out of range", ev.Worker)
		}
		kinds[taskPhase(ev.Name)] = true
	}
	for _, want := range []string{"SKEL", "COEF", "N2S", "S2S", "S2N", "L2L"} {
		if !kinds[want] {
			t.Fatalf("no task events of kind %s (have %v)", want, kinds)
		}
	}
	snap := rec.Snapshot()
	if snap.Counters["sched.compress.tasks"] == 0 || snap.Counters["sched.matvec.tasks"] == 0 {
		t.Fatal("scheduler task counters missing")
	}
}

func TestTelemetryChromeTraceFromRealRun(t *testing.T) {
	rec, _ := instrumentedRun(t, Dynamic)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("empty chrome trace")
	}
	report := rec.Report()
	for _, want := range []string{"compress", "matvec", "skel.rank"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestTelemetryNilRecorderIsInert(t *testing.T) {
	// The zero-config path must behave exactly as before: no trace, no
	// panic, Stats still populated.
	h, _ := compressGauss(t, 200, Config{
		LeafSize: 32, MaxRank: 32, Tol: 1e-7, Kappa: 8,
		Budget: 0.05, Distance: Kernel, Exec: Dynamic, Seed: 5,
		NumWorkers: 2,
	})
	rng := rand.New(rand.NewSource(7))
	h.Matvec(linalg.GaussianMatrix(rng, 200, 2))
	if h.Stats.CompressTime <= 0 || h.Stats.EvalTime <= 0 {
		t.Fatal("Stats not populated on the nil-recorder path")
	}
	if h.TelemetryReport() != "telemetry disabled\n" {
		t.Fatalf("unexpected nil report: %q", h.TelemetryReport())
	}
}

// TestTelemetryMatvecIntoCounts: caller-owned-output evaluations go through
// the same envelope as MatvecCtx, so each one counts in matvec.calls.
func TestTelemetryMatvecIntoCounts(t *testing.T) {
	rec := telemetry.New()
	h, _ := compressGauss(t, 300, Config{
		LeafSize: 32, MaxRank: 32, Tol: 1e-7, Kappa: 8, Budget: 0.05,
		Distance: Kernel, Exec: Sequential, Seed: 5, CacheBlocks: true,
		Telemetry: rec,
	})
	rng := rand.New(rand.NewSource(7))
	W := linalg.GaussianMatrix(rng, 300, 2)
	U := linalg.NewMatrix(300, 2)
	for i := 0; i < 3; i++ {
		if err := h.MatvecIntoCtx(context.Background(), W, U); err != nil {
			t.Fatal(err)
		}
	}
	snap := rec.Snapshot()
	if got := snap.Counters["matvec.calls"]; got != 3 {
		t.Fatalf("matvec.calls = %d after 3 MatvecIntoCtx calls, want 3", got)
	}
	if got, want := snap.Counters["matvec.flops"], int64(3*2*h.Plan().FlopsPerCol()); got != want {
		t.Fatalf("matvec.flops = %d, want %d", got, want)
	}
}

// TestTelemetryConcurrentInterpFlopsExact: concurrent interpreter calls
// each account their own static count, so matmat.flops is exactly the sum
// of FlopsPerCol()·r over every call, whatever the interleaving.
func TestTelemetryConcurrentInterpFlopsExact(t *testing.T) {
	rec := telemetry.New()
	h, _ := compressGauss(t, 300, Config{
		LeafSize: 32, MaxRank: 32, Tol: 1e-7, Kappa: 8, Budget: 0.05,
		Distance: Kernel, Exec: Sequential, Seed: 5, CacheBlocks: true,
		Telemetry: rec,
	})
	perCol := int64(h.Plan().FlopsPerCol())
	const goroutines, calls = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	var want int64
	for g := 0; g < goroutines; g++ {
		for i := 0; i < calls; i++ {
			want += perCol * int64(1+(g+i)%4)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < calls; i++ {
				X := linalg.GaussianMatrix(rng, 300, 1+(g+i)%4)
				if _, err := h.InterpMatmatCtx(context.Background(), X); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := rec.Snapshot().Counters["matmat.flops"]; got != want {
		t.Fatalf("matmat.flops = %d, want Σ FlopsPerCol()·r = %d", got, want)
	}
}
