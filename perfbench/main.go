// Command perfbench is the repository benchmark: it generates a seeded
// Flickr-like dataset, builds, saves and loads the index through the
// maxbrstknn facade, serves it in process on loopback, drives one
// workload against it, checks every answer, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics of a traced run).
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note flags a percentile with fewer than ten samples beyond it, or
	// gives the sample count.
	Note string `json:"note,omitempty"`
}

// gated lists the end-to-end metrics of BENCHMARK.json: the ones every
// workload has and measures steadily on a shared 2-CPU host. The
// per-endpoint percentiles, query_rps and failed_frac are reported, not
// gated: some exist only on some workloads, some are 0 by design, and
// the open loop's query percentiles move with the host's speed by more
// than any bound.
var gated = []string{"setup_s", "primary_p50_ms", "index_heap_mb"}

// layerNames lists the per-layer metrics of BENCHMARK.json with their
// units; a workload that does not exercise a layer reports 0.
var layerNames = []struct{ name, unit string }{
	{"maxbrstknn.build_ms", "ms"}, {"maxbrstknn.save_ms", "ms"}, {"maxbrstknn.load_ms", "ms"},
	{"server.decode_ms", "ms"}, {"server.encode_ms", "ms"}, {"server.http_self_ms", "ms"},
	{"server.session_hit_rate", "ratio"}, {"server.session_misses", "count/req"},
	{"topk.phase1_ms", "ms"}, {"topk.traverse_ms", "ms"}, {"topk.refine_ms", "ms"},
	{"topk.visited_nodes", "count"}, {"topk.refined_candidates", "count"},
	{"storage.simulated_io", "count/req"}, {"storage.decoded_hit_rate", "ratio"},
	{"storage.decoded_evictions", "count/req"}, {"storage.physical_pages", "count/req"},
	{"core.phase2_ms", "ms"},
	{"irtree.add_ms", "ms"}, {"irtree.delete_ms", "ms"}, {"irtree.epochs", "count"}, {"irtree.retired_pages", "count"},
	{"coord.phase1_ms", "ms"}, {"coord.phase2_ms", "ms"}, {"coord.hop_ms", "ms"},
	{"coord.wave1_visited", "count/req"}, {"coord.wave2_refined", "count/req"},
	{"coord.scatter_evaluated", "count/req"}, {"coord.threshold_hit_rate", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overrun_requests", "count"},
}

// envRecord is printed with every result.
type envRecord struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Scale      string `json:"scale"`
	Spec       spec   `json:"spec"`
}

// commit names the benchmarked source: the git HEAD of the working
// directory, or "unknown" (a plain source checkout).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var o options
	var scale string
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the dataset and every request")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&scale, "scale", "full", "full (20k objects) or tiny (2k objects, seconds-long smoke runs)")
	flag.StringVar(&o.dir, "out", ".bench_build", "directory for the run's index file, spans and result record")
	flag.Parse()
	o.trace = *trace == 1
	o.tiny = scale == "tiny"
	if (*trace != 0 && *trace != 1) || (scale != "full" && scale != "tiny") || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1, --scale full or tiny, --seconds at least 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// print writes the human-readable report, records the full result under
// the output directory, and ends with the one-line JSON result.
func (r *outcome) print(w *os.File, o options) error {
	env, _ := json.Marshal(r.Env)
	fmt.Fprintf(w, "# env %s\n", env)
	report := func(title string, m map[string]metric) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "# %s %-28s %14.4f %-9s %s\n", title, n, m[n].Value, m[n].Unit, m[n].Note)
		}
	}
	report("e2e", r.E2E)
	report("layer", r.Layers)
	report("count", r.Counters)
	for _, line := range r.Shares {
		fmt.Fprintf(w, "# share %s\n", line)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# FAILED %s\n", p)
	}

	out := map[string]metric{}
	if o.trace {
		for _, l := range layerNames {
			m := r.Layers[l.name]
			out[l.name] = metric{Value: m.Value, Unit: l.unit}
		}
	} else {
		for _, n := range gated {
			m, ok := r.E2E[n]
			if !ok {
				return fmt.Errorf("workload %s did not measure %s", o.workload, n)
			}
			out[n] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	record, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%v.json", o.workload, o.seed, o.trace)
	if err := os.WriteFile(filepath.Join(o.dir, name), record, 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", last)
	return nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
