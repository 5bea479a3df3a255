package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/textrel"
	"repro/internal/topk"
)

// datasetKey caches generated datasets across sweep points: a sweep over k
// or α re-uses the same objects, exactly as the paper fixes the dataset
// while varying one parameter.
type datasetKey struct {
	kind DatasetKind
	n    int
	seed int64
}

var (
	dsCacheMu sync.Mutex
	dsCache   = map[datasetKey]*dataset.Dataset{}
)

// datasetFor returns (building and caching on first use) the dataset for a
// configuration.
func datasetFor(cfg Config) *dataset.Dataset {
	key := datasetKey{cfg.Dataset, cfg.NumObjects, cfg.Seed}
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if ds, ok := dsCache[key]; ok {
		return ds
	}
	var ds *dataset.Dataset
	switch cfg.Dataset {
	case Yelp:
		c := dataset.DefaultYelpConfig(cfg.NumObjects)
		c.Seed = cfg.Seed
		ds = dataset.GenerateYelp(c)
	case Flickr:
		c := dataset.DefaultFlickrConfig(cfg.NumObjects)
		c.Seed = cfg.Seed
		ds = dataset.GenerateFlickr(c)
	default:
		panic(fmt.Sprintf("experiments: unknown dataset kind %d", int(cfg.Dataset)))
	}
	dsCache[key] = ds
	return ds
}

// Workload is one fully prepared experiment instance: dataset, one user
// set, candidate locations, scorer, and both index variants.
type Workload struct {
	Cfg    Config
	DS     *dataset.Dataset
	US     dataset.UserSet
	Locs   []geo.Point
	Scorer *textrel.Scorer
	// IR is the plain IR-tree the baseline searches; MIR the min-max
	// variant the joint algorithm uses.
	IR  *irtree.Tree
	MIR *irtree.Tree
}

// NewWorkload materializes the workload for one run (user sets differ per
// run index, as the paper averages over 100 generated user sets).
func NewWorkload(cfg Config, run int) *Workload {
	ds := datasetFor(cfg)
	us := dataset.GenerateUsers(ds, dataset.UserConfig{
		NumUsers: cfg.NumUsers, UL: cfg.UL, UW: cfg.UW, Area: cfg.Area,
		Seed: cfg.Seed*1000 + int64(run),
	})
	margin := cfg.Area/4 + 0.5
	if cfg.LocMargin != 0 {
		margin = cfg.LocMargin
	}
	locs := dataset.CandidateLocations(us.Region, cfg.NumLocs, margin, cfg.Seed*77+int64(run))
	scorer := textrel.NewScorer(ds, cfg.Measure, cfg.Alpha, dataset.UsersMBR(us.Users), geo.MBR(locs))
	return &Workload{
		Cfg:    cfg,
		DS:     ds,
		US:     us,
		Locs:   locs,
		Scorer: scorer,
		IR:     irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.IRTree, Fanout: cfg.Fanout, DecodedCacheBytes: cfg.DecodedCacheBytes, PackedPostings: cfg.PackedPostings}),
		MIR:    irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: cfg.Fanout, DecodedCacheBytes: cfg.DecodedCacheBytes, PackedPostings: cfg.PackedPostings}),
	}
}

// Query builds the MaxBRSTkNN query of this workload.
func (w *Workload) Query() core.Query {
	return core.Query{
		Locations: w.Locs,
		Keywords:  w.US.Keywords,
		WS:        w.Cfg.WS,
		K:         w.Cfg.K,
	}
}

// MeasureBaselineTopK times the per-user top-k phase on the IR-tree.
func (w *Workload) MeasureBaselineTopK() (TopKMetrics, error) {
	w.IR.IO().Reset()
	start := time.Now()
	if _, err := topk.BaselineTopK(w.IR, w.Scorer, w.US.Users, w.Cfg.K); err != nil {
		return TopKMetrics{}, err
	}
	return TopKMetrics{
		TotalMillis: float64(time.Since(start).Microseconds()) / 1000,
		TotalIO:     w.IR.IO().Total(),
		Users:       len(w.US.Users),
	}, nil
}

// parOpts resolves the workload's parallel-engine configuration; the
// zero-valued default keeps every experiment sequential, the paper's
// setting (benchrunner's -workers/-groups flags opt in).
func (w *Workload) parOpts() core.ParallelOptions {
	return core.ParallelOptions{Workers: w.Cfg.Workers, Groups: w.Cfg.Groups}.Normalize()
}

// MeasureJointTopK times the shared top-k phase on the MIR-tree, on the
// parallel engine when the configuration asks for it.
func (w *Workload) MeasureJointTopK() (TopKMetrics, error) {
	w.MIR.IO().Reset()
	opts := w.parOpts()
	start := time.Now()
	if _, err := topk.JointTopK(w.MIR, w.Scorer, w.US.Users, w.Cfg.K, opts.Workers, opts.Groups, nil); err != nil {
		return TopKMetrics{}, err
	}
	return TopKMetrics{
		TotalMillis: float64(time.Since(start).Microseconds()) / 1000,
		TotalIO:     w.MIR.IO().Total(),
		Users:       len(w.US.Users),
	}, nil
}

// PreparedEngine returns an engine with thresholds computed jointly.
func (w *Workload) PreparedEngine() (*core.Engine, error) {
	e := core.NewEngine(w.MIR, w.Scorer, w.US.Users)
	if err := e.PrepareJoint(w.Cfg.K, w.parOpts()); err != nil {
		return nil, err
	}
	return e, nil
}

// SelectionTriple runs the three candidate-selection strategies on a
// prepared engine and returns (baselineMs, exactMs, approxMs, exactCount,
// approxCount).
func (w *Workload) SelectionTriple(e *core.Engine, runBaseline bool) (bMs, eMs, aMs float64, eCount, aCount int, err error) {
	q := w.Query()
	if runBaseline {
		start := time.Now()
		if _, err = e.Baseline(q); err != nil {
			return
		}
		bMs = float64(time.Since(start).Microseconds()) / 1000
	}
	start := time.Now()
	exact, err := e.Select(q, core.KeywordsExact, w.parOpts())
	if err != nil {
		return
	}
	eMs = float64(time.Since(start).Microseconds()) / 1000
	start = time.Now()
	approx, err := e.Select(q, core.KeywordsApprox, w.parOpts())
	if err != nil {
		return
	}
	aMs = float64(time.Since(start).Microseconds()) / 1000
	eCount, aCount = exact.Count(), approx.Count()
	return
}
