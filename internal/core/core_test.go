package core

import (
	"math"
	"testing"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/textrel"
	"repro/internal/topk"
	"repro/internal/vocab"
)

// fixture bundles a small but non-trivial problem instance.
type fixture struct {
	ds     *dataset.Dataset
	us     dataset.UserSet
	scorer *textrel.Scorer
	tree   *irtree.Tree
	engine *Engine
	locs   []geo.Point
}

func newFixture(t testing.TB, measure textrel.MeasureKind, alpha float64, nObjects, nUsers, nLocs int, seed int64) *fixture {
	t.Helper()
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: nObjects, VocabSize: 250, MeanTags: 5, NumCluster: 6, Zipf: 1.2, Seed: seed,
	})
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: nUsers, UL: 3, UW: 12, Area: 20, Seed: seed + 1})
	locs := dataset.CandidateLocations(us.Region, nLocs, 1.0, seed+2)
	locsMBR := geo.MBR(locs)
	scorer := textrel.NewScorer(ds, measure, alpha, dataset.UsersMBR(us.Users), locsMBR)
	tree := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 16})
	return &fixture{
		ds: ds, us: us, scorer: scorer, tree: tree,
		engine: NewEngine(tree, scorer, us.Users),
		locs:   locs,
	}
}

func (f *fixture) query(ws, k int) Query {
	return Query{Locations: f.locs, Keywords: f.us.Keywords, WS: ws, K: k}
}

// bruteForceBestCount exhaustively maximizes |BRSTkNN| over every location
// and every keyword subset of size ≤ ws, using thresholds computed by an
// independently verified method. This is the ground truth for Select.
func bruteForceBestCount(t *testing.T, f *fixture, q Query) int {
	t.Helper()
	per, err := topk.BaselineTopK(f.tree, f.scorer, f.us.Users, q.K)
	if err != nil {
		t.Fatal(err)
	}
	norms := f.scorer.UserNorms(f.us.Users)
	best := 0
	for li := range q.Locations {
		for size := 0; size <= q.WS; size++ {
			container.Combinations(q.Keywords, size, func(combo []vocab.TermID) bool {
				doc := q.OxDoc.MergeTerms(combo)
				count := 0
				for ui := range f.us.Users {
					u := &f.us.Users[ui]
					s := f.scorer.STS(q.Locations[li], doc, u.Loc, u.Doc, norms[ui])
					if s >= per[ui].RSk {
						count++
					}
				}
				if count > best {
					best = count
				}
				return true
			})
		}
	}
	return best
}

// prepareBaseline prepares e with the thresholds of independent per-user
// IR-tree searches (Section 4), the oracle for PrepareJoint's.
func prepareBaseline(t testing.TB, e *Engine, k int) {
	t.Helper()
	per, err := topk.BaselineTopK(e.Tree, e.Scorer, e.Users, k)
	if err != nil {
		t.Fatal(err)
	}
	rsk := make([]float64, len(per))
	for i, p := range per {
		rsk[i] = p.RSk
	}
	e.SetPrepared(k, rsk, minThreshold(rsk))
}

func TestQueryValidate(t *testing.T) {
	kw := []vocab.TermID{1, 2}
	loc := []geo.Point{{X: 1, Y: 1}}
	tests := []struct {
		name string
		q    Query
		ok   bool
	}{
		{"valid", Query{Locations: loc, Keywords: kw, WS: 1, K: 5}, true},
		{"ws zero ok", Query{Locations: loc, Keywords: kw, WS: 0, K: 5}, true},
		{"no locations", Query{Keywords: kw, WS: 1, K: 5}, false},
		{"negative ws", Query{Locations: loc, Keywords: kw, WS: -1, K: 5}, false},
		{"ws over W", Query{Locations: loc, Keywords: kw, WS: 3, K: 5}, false},
		{"k zero", Query{Locations: loc, Keywords: kw, WS: 1, K: 0}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.q.Validate() == nil; got != tt.ok {
				t.Errorf("Validate ok = %v, want %v", got, tt.ok)
			}
		})
	}
}

func TestEngineRequiresPreparation(t *testing.T) {
	f := newFixture(t, textrel.KO, 0.5, 300, 20, 3, 100)
	q := f.query(2, 5)
	if _, err := f.engine.Select(q, KeywordsExact, ParallelOptions{}); err == nil {
		t.Error("unprepared engine should refuse")
	}
	if err := f.engine.PrepareJoint(5, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Select(q, KeywordsExact, ParallelOptions{}); err != nil {
		t.Errorf("prepared engine failed: %v", err)
	}
	// changing k invalidates the preparation
	q.K = 7
	if _, err := f.engine.Select(q, KeywordsExact, ParallelOptions{}); err == nil {
		t.Error("k mismatch should refuse")
	}
}

func TestPrepareJointAndBaselineAgree(t *testing.T) {
	f := newFixture(t, textrel.LM, 0.5, 500, 30, 5, 200)
	if err := f.engine.PrepareJoint(5, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	joint := append([]float64(nil), f.engine.RSk()...)
	prepareBaseline(t, f.engine, 5)
	base := f.engine.RSk()
	for i := range joint {
		if math.Abs(joint[i]-base[i]) > 1e-9 {
			t.Fatalf("user %d: joint RSk %v, baseline %v", i, joint[i], base[i])
		}
	}
}

// The central correctness test: exact Select equals independent brute
// force, for every measure and several α.
func TestExactMatchesBruteForce(t *testing.T) {
	for _, measure := range []textrel.MeasureKind{textrel.LM, textrel.TFIDF, textrel.KO, textrel.BM25} {
		for _, alpha := range []float64{0.3, 0.5, 0.8} {
			f := newFixture(t, measure, alpha, 300, 25, 4, 300)
			// trim keyword set so brute force stays tiny
			q := f.query(2, 5)
			if len(q.Keywords) > 8 {
				q.Keywords = q.Keywords[:8]
			}
			if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
				t.Fatal(err)
			}
			got, err := f.engine.Select(q, KeywordsExact, ParallelOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForceBestCount(t, f, q)
			if got.Count() != want {
				t.Fatalf("%s α=%v: exact count %d, brute force %d", measure, alpha, got.Count(), want)
			}
		}
	}
}

// Baseline (exactly-ws enumeration) can never beat exact (≤ ws), and under
// KO/TFIDF they must agree.
func TestBaselineVsExact(t *testing.T) {
	for _, measure := range []textrel.MeasureKind{textrel.KO, textrel.TFIDF, textrel.LM} {
		f := newFixture(t, measure, 0.5, 300, 25, 4, 400)
		q := f.query(2, 5)
		if len(q.Keywords) > 8 {
			q.Keywords = q.Keywords[:8]
		}
		if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
			t.Fatal(err)
		}
		exact, err := f.engine.Select(q, KeywordsExact, ParallelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		base, err := f.engine.Baseline(q)
		if err != nil {
			t.Fatal(err)
		}
		if base.Count() > exact.Count() {
			t.Fatalf("%s: baseline %d beats exact %d", measure, base.Count(), exact.Count())
		}
		if measure != textrel.LM && base.Count() != exact.Count() {
			t.Fatalf("%s: baseline %d != exact %d (adding keywords never hurts here)",
				measure, base.Count(), exact.Count())
		}
	}
}

func TestApproxNeverBeatsExactAndIsReasonable(t *testing.T) {
	ratios := []float64{}
	for seed := int64(500); seed < 510; seed++ {
		f := newFixture(t, textrel.LM, 0.5, 400, 40, 5, seed)
		q := f.query(3, 5)
		if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
			t.Fatal(err)
		}
		exact, err := f.engine.Select(q, KeywordsExact, ParallelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		approx, err := f.engine.Select(q, KeywordsApprox, ParallelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if approx.Count() > exact.Count() {
			t.Fatalf("seed %d: approx %d beats exact %d", seed, approx.Count(), exact.Count())
		}
		if exact.Count() > 0 {
			ratios = append(ratios, float64(approx.Count())/float64(exact.Count()))
		}
	}
	if len(ratios) == 0 {
		t.Skip("no instance produced a non-empty result")
	}
	sum := 0.0
	for _, r := range ratios {
		sum += r
	}
	if mean := sum / float64(len(ratios)); mean < 0.6 {
		t.Errorf("mean approximation ratio %v below the paper's observed range [0.6,1]", mean)
	}
}

func TestSelectionShape(t *testing.T) {
	f := newFixture(t, textrel.KO, 0.5, 300, 30, 5, 600)
	q := f.query(2, 5)
	if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	sel, err := f.engine.Select(q, KeywordsExact, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() > 0 {
		if sel.LocIndex < 0 || sel.LocIndex >= len(q.Locations) {
			t.Errorf("LocIndex = %d out of range", sel.LocIndex)
		}
		if sel.Location != q.Locations[sel.LocIndex] {
			t.Error("Location does not match LocIndex")
		}
		if len(sel.Keywords) > q.WS {
			t.Errorf("selected %d keywords, ws = %d", len(sel.Keywords), q.WS)
		}
		kw := textrel.NewCandidateSet(q.Keywords)
		for _, k := range sel.Keywords {
			if !kw[k] {
				t.Errorf("selected keyword %d not in W", k)
			}
		}
		for i := 1; i < len(sel.Users); i++ {
			if sel.Users[i-1] >= sel.Users[i] {
				t.Error("user list not sorted ascending")
			}
		}
	}
}

// The NP-hardness reduction setting (α=1, |L|=1): result must still match
// brute force, exercising the pure keyword-coverage path.
func TestPureKeywordSelection(t *testing.T) {
	f := newFixture(t, textrel.KO, 1.0, 300, 25, 1, 700)
	q := f.query(2, 5)
	if len(q.Keywords) > 8 {
		q.Keywords = q.Keywords[:8]
	}
	if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := f.engine.Select(q, KeywordsExact, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceBestCount(t, f, q)
	if got.Count() != want {
		t.Fatalf("α=1: exact %d, brute force %d", got.Count(), want)
	}
}

func TestWSZeroSelectsLocationOnly(t *testing.T) {
	f := newFixture(t, textrel.LM, 0.5, 300, 25, 5, 800)
	q := f.query(0, 5)
	if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	sel, err := f.engine.Select(q, KeywordsExact, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Keywords) != 0 {
		t.Errorf("ws=0 must select no keywords, got %v", sel.Keywords)
	}
	want := bruteForceBestCount(t, f, q)
	if sel.Count() != want {
		t.Fatalf("ws=0: exact %d, brute force %d", sel.Count(), want)
	}
}

func TestExistingOxDoc(t *testing.T) {
	f := newFixture(t, textrel.LM, 0.5, 300, 25, 4, 900)
	q := f.query(2, 5)
	if len(q.Keywords) > 6 {
		q.Keywords = q.Keywords[:6]
	}
	// give ox an existing description containing one pooled keyword
	q.OxDoc = vocab.DocFromTerms(f.us.Keywords[:1])
	if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := f.engine.Select(q, KeywordsExact, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceBestCount(t, f, q)
	if got.Count() != want {
		t.Fatalf("with existing ox.d: exact %d, brute force %d", got.Count(), want)
	}
}

func TestKeywordMethodString(t *testing.T) {
	if KeywordsExact.String() != "exact" || KeywordsApprox.String() != "approx" {
		t.Error("method names")
	}
}
