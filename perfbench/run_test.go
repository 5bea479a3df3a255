package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestTinyRuns runs every workload at tiny scale, untraced and traced,
// and requires correct answers, every gated or per-layer metric, and
// layer spans that never outlast their request.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(w+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				r, err := run(options{workload: w, seed: 5, seconds: 1, trace: trace, tiny: true, dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() || r.Attempted == 0 {
					t.Fatalf("failed %d of %d: %v", r.Failed, r.Attempted, r.Problems)
				}
				for _, n := range gated {
					if m, ok := r.E2E[n]; !ok || !(m.Value > 0) {
						t.Errorf("%s = %+v (present %v), want a positive value", n, m, ok)
					}
				}
				if !trace {
					return
				}
				for _, l := range layerNames {
					if _, ok := r.Layers[l.name]; !ok && layerApplies(w, l.name) {
						t.Errorf("traced %s did not measure %s", w, l.name)
					}
				}
				if r.Layers["trace.overrun_requests"].Value != 0 {
					t.Error("layer spans outlast their request span")
				}
				stressed := map[string]string{"select-warm": "core.phase2_ms", "cohort-cold": "topk.phase1_ms",
					"ingest-mixed": "irtree.add_ms", "sharded-cold": "coord.phase1_ms"}[w]
				if !(r.Layers[stressed].Value > 0) {
					t.Errorf("%s = %v, want the spans of the layer %s stresses", stressed, r.Layers[stressed].Value, w)
				}
			})
		}
	}
}

// layerApplies reports whether a workload exercises a layer metric.
func layerApplies(workload, name string) bool {
	switch name {
	case "loadgen.lag_p99_ms", "irtree.add_ms", "irtree.delete_ms":
		return workload == "ingest-mixed"
	case "coord.phase1_ms", "coord.phase2_ms", "coord.hop_ms", "coord.wave1_visited",
		"coord.wave2_refined", "coord.scatter_evaluated", "coord.threshold_hit_rate":
		return workload == "sharded-cold"
	case "server.decode_ms", "server.encode_ms", "server.http_self_ms", "topk.phase1_ms", "core.phase2_ms",
		"topk.traverse_ms", "topk.refine_ms", "topk.visited_nodes", "topk.refined_candidates":
		return workload != "sharded-cold"
	}
	return true
}

// TestCountersRepeat replays a single client's fixed request stream
// twice on fresh deployments: the work counters must repeat exactly, so
// that count-based claims compare like with like.
func TestCountersRepeat(t *testing.T) {
	for _, w := range []string{"select-warm", "cohort-cold", "sharded-cold"} {
		for _, trace := range []bool{false, true} {
			t.Run(w+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				o := options{workload: w, seed: 9, seconds: 1, trace: trace, tiny: true, clients: 1, requests: 6}
				var got []map[string]metric
				for i := 0; i < 2; i++ {
					o.dir = t.TempDir()
					r, err := run(o)
					if err != nil {
						t.Fatal(err)
					}
					if !r.correct() {
						t.Fatalf("failed: %v", r.Problems)
					}
					got = append(got, r.Counters)
				}
				if got[0]["requests"].Value != 6 {
					t.Fatalf("sent %v requests, want 6", got[0]["requests"].Value)
				}
				if !reflect.DeepEqual(got[0], got[1]) {
					t.Errorf("counters differ between identical replays:\n%v\n%v", got[0], got[1])
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("workloads %v, benchmark runs %v", workloads, workloadNames)
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, gated) {
		t.Errorf("end_to_end %v, benchmark gates %v", e2e, gated)
	}
	if len(b.PerLayer) != len(layerNames) {
		t.Fatalf("per_layer has %d metrics, benchmark prints %d", len(b.PerLayer), len(layerNames))
	}
	for i, m := range b.PerLayer {
		if m.Name != layerNames[i].name || m.Unit != layerNames[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), benchmark prints %s (%s)", i, m.Name, m.Unit, layerNames[i].name, layerNames[i].unit)
		}
	}
}
