package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every reading, making span durations
// deterministic for tests.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.t = c.Add(c.step)
	return c.t
}

func (c *fakeClock) Add(d time.Duration) time.Time { return c.t.Add(d) }

func testRecorder(step time.Duration) *Recorder {
	clk := &fakeClock{t: time.Unix(1700000000, 0), step: step}
	return newRecorder(clk.Now)
}

func TestSpanNesting(t *testing.T) {
	r := testRecorder(time.Millisecond)
	root := r.StartSpan("compress")
	ann := root.StartSpan("ann")
	if d := ann.End(); d <= 0 {
		t.Fatalf("child span duration %v", d)
	}
	skel := root.StartSpan("skel")
	skel.End()
	root.End()

	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "compress" {
		t.Fatalf("roots = %+v", snap.Spans)
	}
	kids := snap.Spans[0].Children
	if len(kids) != 2 || kids[0].Name != "ann" || kids[1].Name != "skel" {
		t.Fatalf("children = %+v", kids)
	}
	if kids[0].Seconds <= 0 || snap.Spans[0].Seconds < kids[0].Seconds {
		t.Fatalf("durations: root %v ann %v", snap.Spans[0].Seconds, kids[0].Seconds)
	}
	if got := r.PhaseSeconds("compress", "ann"); got != kids[0].Seconds {
		t.Fatalf("PhaseSeconds = %v, want %v", got, kids[0].Seconds)
	}
	if got := r.PhaseSeconds("compress", "nope"); got != 0 {
		t.Fatalf("PhaseSeconds for missing phase = %v", got)
	}
}

func TestSpanEndTwiceKeepsFirst(t *testing.T) {
	r := testRecorder(time.Millisecond)
	sp := r.StartSpan("x")
	d1 := sp.End()
	d2 := sp.End()
	if d1 != d2 {
		t.Fatalf("second End changed duration: %v vs %v", d1, d2)
	}
}

func TestAddChildExplicitInterval(t *testing.T) {
	r := testRecorder(time.Millisecond)
	root := r.StartSpan("matvec")
	root.AddChild("n2s", 10*time.Millisecond, 25*time.Millisecond)
	root.AddChild("bad", 30*time.Millisecond, 20*time.Millisecond) // clamped
	root.End()
	snap := r.Snapshot()
	kids := snap.Spans[0].Children
	if kids[0].Seconds != 0.015 {
		t.Fatalf("explicit child duration = %v", kids[0].Seconds)
	}
	if kids[1].Seconds != 0 {
		t.Fatalf("inverted interval not clamped: %v", kids[1].Seconds)
	}
}

func TestMetricsRegistry(t *testing.T) {
	r := testRecorder(time.Millisecond)
	r.Counter("oracle.at").Add(3)
	r.Counter("oracle.at").Add(4)
	r.Gauge("util").Set(0.5)
	r.Gauge("util").Set(0.75)
	for _, v := range []float64{1, 2, 3, 100} {
		r.Histogram("rank").Observe(v)
	}
	snap := r.Snapshot()
	if snap.Counters["oracle.at"] != 7 {
		t.Fatalf("counter = %d", snap.Counters["oracle.at"])
	}
	if snap.Gauges["util"] != 0.75 {
		t.Fatalf("gauge = %v", snap.Gauges["util"])
	}
	h := snap.Histograms["rank"]
	if h.Count != 4 || h.Min != 1 || h.Max != 100 || h.Mean != 26.5 {
		t.Fatalf("histogram = %+v", h)
	}
	if len(h.Buckets) == 0 {
		t.Fatalf("histogram has no buckets: %+v", h)
	}
	var n int64
	for _, c := range h.Buckets {
		n += c
	}
	if n != h.Count {
		t.Fatalf("bucket counts %d != count %d", n, h.Count)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	sp := r.StartSpan("x")
	if sp != nil {
		t.Fatal("nil recorder produced a span")
	}
	child := sp.StartSpan("y")
	if child != nil || sp.End() != 0 || sp.Name() != "" {
		t.Fatal("nil span not inert")
	}
	sp.AddChild("z", 0, 1)
	r.Counter("c").Add(1)
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(1)
	r.AddTaskEvents([]TaskEvent{{Name: "t"}})
	if r.TaskEvents() != nil || r.Since() != 0 {
		t.Fatal("nil recorder retained state")
	}
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value %d", got)
	}
	snap := r.Snapshot()
	if snap.Schema != SnapshotSchema || len(snap.Counters) != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	if !strings.Contains(r.Report(), "disabled") {
		t.Fatal("nil Report should say disabled")
	}
}

func TestUnendedSpanExtendsToNow(t *testing.T) {
	r := testRecorder(time.Millisecond)
	r.StartSpan("open")
	snap := r.Snapshot()
	if snap.Spans[0].Seconds <= 0 {
		t.Fatalf("unended span duration %v", snap.Spans[0].Seconds)
	}
}

func TestReportTree(t *testing.T) {
	r := testRecorder(time.Millisecond)
	root := r.StartSpan("compress")
	root.StartSpan("ann").End()
	root.End()
	r.Counter("oracle.at").Add(42)
	r.Histogram("skel.rank").Observe(17)
	rep := r.Report()
	for _, want := range []string{"compress", "ann", "%", "oracle.at", "42", "skel.rank"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestTaskEvents(t *testing.T) {
	r := testRecorder(time.Millisecond)
	r.AddTaskEvents([]TaskEvent{
		{Name: "N2S(1)", Worker: 0, Start: time.Millisecond, Dur: time.Millisecond, StolenFrom: -1},
		{Name: "L2L(2)", Worker: 1, Start: 2 * time.Millisecond, Dur: time.Millisecond, StolenFrom: 0},
	})
	if got := len(r.TaskEvents()); got != 2 {
		t.Fatalf("task events = %d", got)
	}
	if r.Snapshot().TaskEvents != 2 {
		t.Fatal("snapshot task-event count wrong")
	}
}

func TestValidateRunRecord(t *testing.T) {
	rr := NewRunRecord("compress_n1024")
	rr.Metrics["eps2"] = 1e-6
	var b strings.Builder
	if err := rr.Write(&b); err != nil {
		t.Fatal(err)
	}
	if err := ValidateRunRecord([]byte(b.String())); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"not json":     "{",
		"wrong schema": `{"schema":"other","name":"x","metrics":{"a":1}}`,
		"no name":      `{"schema":"` + RunRecordSchema + `","metrics":{"a":1}}`,
		"empty":        `{"schema":"` + RunRecordSchema + `","name":"x"}`,
	} {
		if err := ValidateRunRecord([]byte(bad)); err == nil {
			t.Fatalf("%s: accepted %q", name, bad)
		}
	}
}

// WriteBenchFile creates a missing output directory: CI writes each of
// several runs into its own fresh subdirectory.
func TestWriteBenchFileCreatesDir(t *testing.T) {
	rr := NewRunRecord("pr3")
	rr.Metrics["matvec_ms"] = 1
	path, err := rr.WriteBenchFile(filepath.Join(t.TempDir(), "runs", "1"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRunRecord(data); err != nil {
		t.Fatal(err)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[float64]int{-1: 0, 0: 0, 1: 0, 1.5: 1, 2: 1, 3: 2, 4: 2, 1e300: histBuckets - 1}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Fatalf("bucketOf(%g) = %d, want %d", v, got, want)
		}
	}
}
