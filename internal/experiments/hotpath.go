package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/topk"
)

// HotpathVariant is one measured configuration of the hotpath experiment:
// the joint top-k phase with the decoded-object cache off (every node
// visit decodes, the Section 8 accounting setting) or on (the warm
// serving setting maxbrserve runs in).
type HotpathVariant struct {
	Name         string  `json:"name"`
	Workers      int     `json:"workers"`
	Packed       bool    `json:"packed,omitempty"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// ResidentBytes is the decoded cache's resident size after the runs —
	// the memory the hit rate was bought with. The packed codec's point is
	// a better hit rate per resident byte.
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
}

// HotpathReport is the JSON shape recorded to BENCH_hotpath.json.
type HotpathReport struct {
	GeneratedAt string           `json:"generated_at"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	Objects     int              `json:"objects"`
	Users       int              `json:"users"`
	K           int              `json:"k"`
	Iters       int              `json:"iters"`
	Variants    []HotpathVariant `json:"variants"`
}

// sameAnswers compares the per-user answers — ranked lists and
// thresholds — while ignoring the Scored work counter, which varies with
// the worker/group split even when the answers are identical.
func sameAnswers(a, b []topk.UserTopK) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].RSk != b[i].RSk || !reflect.DeepEqual(a[i].Results, b[i].Results) {
			return false
		}
	}
	return true
}

// hotpathIters picks the measurement loop length: enough iterations to
// smooth scheduler noise without making the smoke run slow.
func hotpathIters(cfg Config) int {
	if cfg.NumObjects <= 5000 {
		return 10
	}
	return 5
}

// measureHotpathVariant builds a fresh workload with the given decoded
// cache budget and times `iters` runs of the joint top-k phase. When want
// is non-nil the variant's per-user results must equal it exactly — the
// result-equivalence gate `make bench-smoke` fails on. Returns the
// measured variant and the per-user results for downstream comparison.
func measureHotpathVariant(cfg Config, name string, cacheBytes int64, packed bool, workers, iters int, want []topk.UserTopK) (HotpathVariant, []topk.UserTopK, error) {
	c := cfg
	c.DecodedCacheBytes = cacheBytes
	c.PackedPostings = packed
	w := NewWorkload(c, 0)

	// Warm-up run doubles as the equivalence check: the decoded cache and
	// scratch reuse must be invisible in the answers.
	res, err := topk.JointTopK(w.MIR, w.Scorer, w.US.Users, c.K, workers, workers, nil)
	if err != nil {
		return HotpathVariant{}, nil, err
	}
	if want != nil && !sameAnswers(res.PerUser, want) {
		return HotpathVariant{}, nil, fmt.Errorf(
			"experiments: hotpath variant %q answers differ from the reference variant (equivalence violated)", name)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, b0 := ms.Mallocs, ms.TotalAlloc
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := topk.JointTopK(w.MIR, w.Scorer, w.US.Users, c.K, workers, workers, nil); err != nil {
			return HotpathVariant{}, nil, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)

	v := HotpathVariant{
		Name:        name,
		Workers:     workers,
		Packed:      packed,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(ms.Mallocs-m0) / float64(iters),
		BytesPerOp:  float64(ms.TotalAlloc-b0) / float64(iters),
	}
	cs := w.MIR.DecodedCacheStats()
	v.CacheHits, v.CacheMisses = cs.Hits, cs.Misses
	v.ResidentBytes = cs.Bytes
	if total := cs.Hits + cs.Misses; total > 0 {
		v.CacheHitRate = float64(cs.Hits) / float64(total)
	}
	return v, res.PerUser, nil
}

// FigHotpathReport runs the hotpath experiment — the joint top-k phase
// with the decoded-object cache off vs on, sequential and at 4 workers —
// and returns both the human-readable table and the JSON report recorded
// to BENCH_hotpath.json. Every variant's answers are checked against the
// cache-off sequential reference; a mismatch is an error, making result
// equivalence part of the experiment itself (and of `make bench-smoke`).
func FigHotpathReport(cfg Config) ([]*Table, *HotpathReport, error) {
	iters := hotpathIters(cfg)
	rep := &HotpathReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Objects:     cfg.NumObjects,
		Users:       cfg.NumUsers,
		K:           cfg.K,
		Iters:       iters,
	}

	ref, want, err := measureHotpathVariant(cfg, "decoded-cache-off", 0, false, 1, iters, nil)
	if err != nil {
		return nil, nil, err
	}
	rep.Variants = append(rep.Variants, ref)
	// smallCap shrinks the decoded-cache budget toward the working set so
	// the flat and packed codecs compete on hit rate per resident byte.
	// At this scale the tree is dominated by small leaf posting lists
	// whose per-block headers offset the bit-packed deltas, so the packed
	// win shows up in ns/op (block-max screening skips decode work), not
	// in resident footprint — the report records both so the trade stays
	// visible.
	const smallCap = 12 << 20
	for _, spec := range []struct {
		name       string
		cacheBytes int64
		packed     bool
		workers    int
	}{
		{"decoded-cache-on", 64 << 20, false, 1},
		{"decoded-cache-off-w4", 0, false, 4},
		{"decoded-cache-on-w4", 64 << 20, false, 4},
		{"packed-cache-off", 0, true, 1},
		{"packed-cache-on", 64 << 20, true, 1},
		{"decoded-cache-on-small", smallCap, false, 1},
		{"packed-cache-on-small", smallCap, true, 1},
	} {
		v, _, err := measureHotpathVariant(cfg, spec.name, spec.cacheBytes, spec.packed, spec.workers, iters, want)
		if err != nil {
			return nil, nil, err
		}
		rep.Variants = append(rep.Variants, v)
	}

	t := &Table{
		Title:  fmt.Sprintf("Hotpath — joint top-k phase: decoded cache off/on, flat vs packed postings (GOMAXPROCS=%d)", rep.GoMaxProcs),
		Header: []string{"variant", "workers", "ms/op", "speedup", "allocs/op", "hit rate", "resident MiB"},
	}
	for _, v := range rep.Variants {
		t.AddRow(v.Name, fmt.Sprint(v.Workers),
			f2(v.NsPerOp/1e6), f2(ref.NsPerOp/v.NsPerOp),
			f1(v.AllocsPerOp), f3(v.CacheHitRate), f1(float64(v.ResidentBytes)/(1<<20)))
	}
	return []*Table{t}, rep, nil
}

// FigHotpath is the benchrunner entry point of the hotpath experiment.
func FigHotpath(cfg Config) ([]*Table, error) {
	tables, _, err := FigHotpathReport(cfg)
	return tables, err
}
