package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// The printed metrics must carry exactly the names and units BENCHMARK.json
// lists, in both modes.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	for _, mode := range []struct {
		name  string
		defs  []metricDef
		specs []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		vals := map[string]float64{}
		for _, m := range mode.defs {
			vals[m.name] = 1
		}
		vals["not.a.metric"] = 1
		got, missing := metricValues(mode.defs, vals)
		if len(missing) != 0 {
			t.Errorf("%s: %v reported missing", mode.name, missing)
		}
		raw, err := json.Marshal(result{Metrics: got})
		if err != nil {
			t.Fatal(err)
		}
		var printed struct {
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &printed); err != nil {
			t.Fatal(err)
		}
		if len(printed.Metrics) != len(mode.specs) {
			t.Errorf("%s: prints %d metrics, BENCHMARK.json lists %d", mode.name, len(printed.Metrics), len(mode.specs))
		}
		for _, s := range mode.specs {
			m, ok := printed.Metrics[s.Name]
			if !ok {
				t.Errorf("%s: %s is in BENCHMARK.json but not printed", mode.name, s.Name)
			} else if m.Unit != s.Unit {
				t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", mode.name, s.Name, m.Unit, s.Unit)
			}
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestUnmeasuredMetricIsMissing(t *testing.T) {
	_, missing := metricValues([]metricDef{{"a", "s"}, {"b", "s"}, {"c", "s"}}, map[string]float64{"a": 1, "b": math.NaN()})
	if len(missing) != 2 || missing[0] != "b" || missing[1] != "c" {
		t.Errorf("missing = %v, want [b c]", missing)
	}
}
