// Benchmarks, one per table and figure of the paper's evaluation
// (Section 8). Each benchmark exercises the operation its figure measures,
// at a scale bounded enough for `go test -bench=.`; the full sweeps that
// regenerate the figures' series live in cmd/benchrunner (see
// EXPERIMENTS.md for the recorded outputs).
package maxbrstknn

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/miurtree"
	"repro/internal/topk"
)

var (
	benchOnce sync.Once
	benchW    *experiments.Workload
	benchYelp *experiments.Workload
)

// benchWorkload builds the shared benchmark workloads once.
func benchWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.Quick()
		cfg.NumObjects = 5000
		cfg.NumUsers = 200
		cfg.NumLocs = 20
		cfg.UW = 15
		cfg.WS = 2
		// Benchmarks measure wall time (never simulated I/O), so they run
		// the warm serving configuration: decoded nodes and posting lists
		// are cached and reused across iterations, exactly as maxbrserve
		// reuses them across requests.
		cfg.DecodedCacheBytes = DefaultDecodedCacheBytes
		benchW = experiments.NewWorkload(cfg, 0)

		ycfg := cfg
		ycfg.Dataset = experiments.Yelp
		ycfg.NumObjects = 1000
		benchYelp = experiments.NewWorkload(ycfg, 0)
	})
	return benchW
}

func preparedEngine(b *testing.B, w *experiments.Workload) *core.Engine {
	b.Helper()
	e, err := w.PreparedEngine()
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkTable4_DatasetProperties regenerates the Table 4 statistics.
func BenchmarkTable4_DatasetProperties(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.DS.Describe()
	}
}

// BenchmarkTable5_WorkloadConstruction measures building one experiment
// workload with the Table 5 default parameters.
func BenchmarkTable5_WorkloadConstruction(b *testing.B) {
	cfg := experiments.Quick()
	cfg.NumObjects = 2000
	for i := 0; i < b.N; i++ {
		_ = experiments.NewWorkload(cfg, i)
	}
}

// BenchmarkFig05_TopKBaseline measures the per-user baseline top-k phase
// of Figure 5a/5b (the B series).
func BenchmarkFig05_TopKBaseline(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topk.BaselineTopK(w.IR, w.Scorer, w.US.Users, w.Cfg.K); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig05_TopKJoint measures the joint top-k phase of Figure 5a/5b
// (the J series).
func BenchmarkFig05_TopKJoint(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topk.JointTopK(w.MIR, w.Scorer, w.US.Users, w.Cfg.K, 1, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig05_SelectionExact measures the exact candidate selection of
// Figure 5c.
func BenchmarkFig05_SelectionExact(b *testing.B) {
	w := benchWorkload(b)
	e := preparedEngine(b, w)
	q := w.Query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Select(q, core.KeywordsExact, core.ParallelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig05_SelectionApprox measures the greedy candidate selection
// of Figure 5c.
func BenchmarkFig05_SelectionApprox(b *testing.B) {
	w := benchWorkload(b)
	e := preparedEngine(b, w)
	q := w.Query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Select(q, core.KeywordsApprox, core.ParallelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig05_SelectionBaseline measures the exhaustive Section 4
// selection of Figure 5c (the B series).
func BenchmarkFig05_SelectionBaseline(b *testing.B) {
	w := benchWorkload(b)
	e := preparedEngine(b, w)
	q := w.Query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Baseline(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig06_HighAlphaJoint measures the joint phase at α=0.9
// (Figure 6's spatial-heavy end).
func BenchmarkFig06_HighAlphaJoint(b *testing.B) {
	w := benchWorkload(b)
	cfg := w.Cfg
	cfg.Alpha = 0.9
	w9 := experiments.NewWorkload(cfg, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topk.JointTopK(w9.MIR, w9.Scorer, w9.US.Users, cfg.K, 1, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig07_ManyKeywordsPerUser measures the joint phase at UL=6
// (Figure 7's heavy end).
func BenchmarkFig07_ManyKeywordsPerUser(b *testing.B) {
	w := benchWorkload(b)
	cfg := w.Cfg
	cfg.UL = 6
	w6 := experiments.NewWorkload(cfg, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topk.JointTopK(w6.MIR, w6.Scorer, w6.US.Users, cfg.K, 1, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig08_WideKeywordPool measures approx selection at UW=40
// (Figure 8's heavy end).
func BenchmarkFig08_WideKeywordPool(b *testing.B) {
	w := benchWorkload(b)
	cfg := w.Cfg
	cfg.UW = 40
	w40 := experiments.NewWorkload(cfg, 0)
	e := preparedEngine(b, w40)
	q := w40.Query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Select(q, core.KeywordsApprox, core.ParallelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig09_SparseUsers measures the joint phase at Area=20
// (Figure 9's sparse end).
func BenchmarkFig09_SparseUsers(b *testing.B) {
	w := benchWorkload(b)
	cfg := w.Cfg
	cfg.Area = 20
	ws := experiments.NewWorkload(cfg, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topk.JointTopK(ws.MIR, ws.Scorer, ws.US.Users, cfg.K, 1, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10_ManyLocations measures approx selection at |L|=100
// (Figure 10's heavy end).
func BenchmarkFig10_ManyLocations(b *testing.B) {
	w := benchWorkload(b)
	cfg := w.Cfg
	cfg.NumLocs = 100
	wl := experiments.NewWorkload(cfg, 0)
	e := preparedEngine(b, wl)
	q := wl.Query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Select(q, core.KeywordsApprox, core.ParallelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11_LargeWS measures exact selection at ws=4 (Figure 11's
// combinatorial growth).
func BenchmarkFig11_LargeWS(b *testing.B) {
	w := benchWorkload(b)
	cfg := w.Cfg
	cfg.WS = 4
	ww := experiments.NewWorkload(cfg, 0)
	e := preparedEngine(b, ww)
	q := ww.Query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Select(q, core.KeywordsExact, core.ParallelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12_ManyUsers measures the joint phase at |U|=500
// (Figure 12's scalability axis).
func BenchmarkFig12_ManyUsers(b *testing.B) {
	w := benchWorkload(b)
	cfg := w.Cfg
	cfg.NumUsers = 500
	wu := experiments.NewWorkload(cfg, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topk.JointTopK(wu.MIR, wu.Scorer, wu.US.Users, cfg.K, 1, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13_LargerObjectSet measures the joint phase at |O| doubled
// (Figure 13's scalability axis).
func BenchmarkFig13_LargerObjectSet(b *testing.B) {
	w := benchWorkload(b)
	cfg := w.Cfg
	cfg.NumObjects = 10000
	wo := experiments.NewWorkload(cfg, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topk.JointTopK(wo.MIR, wo.Scorer, wo.US.Users, cfg.K, 1, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14_YelpJoint measures the joint phase on the Yelp-like
// dataset (Figure 14).
func BenchmarkFig14_YelpJoint(b *testing.B) {
	benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topk.JointTopK(benchYelp.MIR, benchYelp.Scorer, benchYelp.US.Users, benchYelp.Cfg.K, 1, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15_UserIndexed measures the Section 7 user-indexed
// processing (Figure 15).
func BenchmarkFig15_UserIndexed(b *testing.B) {
	w := benchWorkload(b)
	ut := miurtree.Build(w.US.Users, w.Scorer, w.Cfg.Fanout)
	q := w.Query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := core.NewEngine(w.MIR, w.Scorer, w.US.Users)
		if _, _, err := engine.SelectUserIndexed(q, core.KeywordsApprox, ut); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoMinWeights runs the joint traversal against the plain
// IR-tree (no stored minimum weights), isolating the MIR-tree's lower
// bounds (README, "Design notes").
func BenchmarkAblationNoMinWeights(b *testing.B) {
	w := benchWorkload(b)
	su := topk.BuildSuperUser(w.US.Users, w.Scorer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topk.TraverseWith(w.IR, w.Scorer, su, w.Cfg.K, &topk.TraverseScratch{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoSuperUser runs per-user traversals over the MIR-tree,
// isolating the super-user grouping.
func BenchmarkAblationNoSuperUser(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topk.BaselineTopK(w.MIR, w.Scorer, w.US.Users, w.Cfg.K); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoBestFirst processes candidate locations in their
// given order, isolating Algorithm 3's best-first ordering.
func BenchmarkAblationNoBestFirst(b *testing.B) {
	w := benchWorkload(b)
	e := preparedEngine(b, w)
	q := w.Query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SelectNoBestFirst(q, core.KeywordsApprox); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPrepareJoint measures phase 1 (threshold preparation) at a given
// worker count; Groups defaults to one spatial group per worker.
func benchPrepareJoint(b *testing.B, workers int) {
	w := benchWorkload(b)
	e := core.NewEngine(w.MIR, w.Scorer, w.US.Users)
	opts := core.ParallelOptions{Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PrepareJoint(w.Cfg.K, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaling_PrepareJointW* is the speedup-vs-workers series of the
// scaling figure (run with -bench=Scaling_PrepareJoint and compare W1 to
// W4). On a single-core machine the speedup comes from the tighter
// per-group super-user bounds alone; on multicore the group traversals
// and per-user refinements additionally run concurrently.
func BenchmarkScaling_PrepareJointW1(b *testing.B) { benchPrepareJoint(b, 1) }
func BenchmarkScaling_PrepareJointW2(b *testing.B) { benchPrepareJoint(b, 2) }
func BenchmarkScaling_PrepareJointW4(b *testing.B) { benchPrepareJoint(b, 4) }
func BenchmarkScaling_PrepareJointW8(b *testing.B) { benchPrepareJoint(b, 8) }

// benchSelect measures phase 2 (exact candidate selection) at a given
// worker count.
func benchSelect(b *testing.B, workers int) {
	w := benchWorkload(b)
	e := preparedEngine(b, w)
	q := w.Query()
	opts := core.ParallelOptions{Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Select(q, core.KeywordsExact, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaling_SelectExactW* is the phase-2 half of the scaling
// figure: candidate locations and keyword-combination chunks fan out over
// the worker pool.
func BenchmarkScaling_SelectExactW1(b *testing.B) { benchSelect(b, 1) }
func BenchmarkScaling_SelectExactW4(b *testing.B) { benchSelect(b, 4) }

// BenchmarkIndexBuild measures MIR-tree construction (index build cost,
// discussed in the paper's Section 5.1 cost analysis).
func BenchmarkIndexBuild(b *testing.B) {
	w := benchWorkload(b)
	ds := w.DS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.NewWorkload(w.Cfg, i%3)
		_ = ds
	}
}
