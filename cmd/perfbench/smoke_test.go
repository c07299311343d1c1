package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against.
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

// smokeOps is the tiny op list every workload runs here.
const smokeOps = 10

func runSmoke(t *testing.T, w workload, trace bool) (result, map[string]float64) {
	t.Helper()
	out, err := runWorkload(w, config{seed: defaultSeed, seconds: 1, ops: smokeOps, trace: trace})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	var buf bytes.Buffer
	if err := out.emit(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line %q: %v", w.name, lines[len(lines)-1], err)
	}
	return res, out.meta["counts"].(map[string]float64)
}

func checkPrinted(t *testing.T, workload string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", workload, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload of BENCHMARK.json on a tiny op list: twice
// untraced and once traced. Each run must print every metric with its
// unit and verify every op, and the op-list counts must repeat exactly
// across the three runs.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []struct{ Name, Unit string }
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		var w *workload
		for i := range workloads {
			if workloads[i].name == sw.Name {
				w = &workloads[i]
			}
		}
		if w == nil {
			t.Errorf("workload %s of BENCHMARK.json is not in the program", sw.Name)
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			var counts []map[string]float64
			for _, trace := range []bool{false, false, true} {
				res, c := runSmoke(t, *w, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted != smokeOps {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if trace {
					checkPrinted(t, w.name, res, layer)
				} else {
					checkPrinted(t, w.name, res, e2e)
					if v := res.Metrics["ok_frac"].Value; v != 1 {
						t.Errorf("ok_frac = %v", v)
					}
				}
				counts = append(counts, c)
			}
			for i := 1; i < len(counts); i++ {
				if !reflect.DeepEqual(counts[0], counts[i]) {
					t.Errorf("counts differ between runs: %v vs %v", counts[0], counts[i])
				}
			}
		})
	}
}
