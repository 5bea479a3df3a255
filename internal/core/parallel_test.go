package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/textrel"
)

// unprunedSelect is Algorithm 3 with none of the driver's pruning: every
// candidate location is evaluated, sequentially, in the canonical
// best-first order (|LU_ℓ| descending, location index ascending), and the
// first maximum wins. It is the oracle for Select's skip rule and worker
// fan-out; the per-location body it shares is pinned separately against
// the unpruned combination oracle (TestSelectKeywordsExactMatchesOracle).
func unprunedSelect(e *Engine, q Query, method KeywordMethod) Selection {
	w := newKeywordSet(q)
	best := Selection{LocIndex: -1}
	for _, lc := range e.locationCandidates(q, w, true) {
		if sel := e.evalLocation(q, method, w, lc, 1); sel.Count() > best.Count() {
			best = sel
		}
	}
	best.normalize()
	return best
}

// TestParallelEquivalence is the engine half of the determinism
// guarantee: PrepareJoint must agree with independent per-user IR-tree
// searches and reproduce its sequential thresholds exactly, and Select
// must return exactly the unpruned best-first scan's answer (whose exact
// count matches brute force), for every Workers × Groups × method
// combination, on several seeded datasets and relevance models.
func TestParallelEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		measure textrel.MeasureKind
		alpha   float64
		seed    int64
	}{
		{"lm", textrel.LM, 0.5, 1},
		{"tfidf", textrel.TFIDF, 0.5, 2},
		{"ko-spatial", textrel.KO, 0.8, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, tc.measure, tc.alpha, 400, 80, 8, tc.seed)
			q := f.query(2, 5)

			// Phase 1's oracle: independent per-user IR-tree searches. They
			// sum scores in another order, so they agree to within 1e-9, and
			// the sequential configuration is then the byte-level reference
			// every other configuration must match exactly.
			base := NewEngine(f.tree, f.scorer, f.us.Users)
			prepareBaseline(t, base, q.K)
			oracle := NewEngine(f.tree, f.scorer, f.us.Users)
			if err := oracle.PrepareJoint(q.K, ParallelOptions{}); err != nil {
				t.Fatal(err)
			}
			for i, want := range base.RSk() {
				if got := oracle.RSk()[i]; math.Abs(got-want) > 1e-9 {
					t.Fatalf("user %d: joint RSk %v, IR-tree search %v", i, got, want)
				}
			}
			wantExact := unprunedSelect(oracle, q, KeywordsExact)
			wantApprox := unprunedSelect(oracle, q, KeywordsApprox)
			if got := bruteForceBestCount(t, f, q); wantExact.Count() != got {
				t.Fatalf("unpruned exact count %d, brute force %d", wantExact.Count(), got)
			}

			for _, workers := range []int{1, 2, 4, 8} {
				for _, groups := range []int{1, 3, 4, 8} {
					opts := ParallelOptions{Workers: workers, Groups: groups}
					par := NewEngine(f.tree, f.scorer, f.us.Users)
					if err := par.PrepareJoint(q.K, opts); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(par.RSk(), oracle.RSk()) {
						t.Fatalf("workers=%d groups=%d: prepared thresholds differ from the sequential ones", workers, groups)
					}

					gotExact, err := par.Select(q, KeywordsExact, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotExact, wantExact) {
						t.Fatalf("workers=%d groups=%d exact: got %+v, want %+v", workers, groups, gotExact, wantExact)
					}

					gotApprox, err := par.Select(q, KeywordsApprox, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotApprox, wantApprox) {
						t.Fatalf("workers=%d groups=%d approx: got %+v, want %+v", workers, groups, gotApprox, wantApprox)
					}
				}
			}
		})
	}
}

// TestParallelSelectMatchesBruteForceCount re-anchors the parallel path to
// ground truth, not just to the sequential implementation.
func TestParallelSelectMatchesBruteForceCount(t *testing.T) {
	f := newFixture(t, textrel.LM, 0.5, 250, 40, 6, 9)
	q := f.query(2, 4)
	want := bruteForceBestCount(t, f, q)

	e := NewEngine(f.tree, f.scorer, f.us.Users)
	opts := ParallelOptions{Workers: 4, Groups: 4}
	if err := e.PrepareJoint(q.K, opts); err != nil {
		t.Fatal(err)
	}
	sel, err := e.Select(q, KeywordsExact, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != want {
		t.Fatalf("parallel exact count = %d, brute force = %d", sel.Count(), want)
	}
}

func TestParallelOptionsNormalize(t *testing.T) {
	cases := []struct{ in, want ParallelOptions }{
		{ParallelOptions{}, ParallelOptions{Workers: 1, Groups: 1}},
		{ParallelOptions{Workers: 4}, ParallelOptions{Workers: 4, Groups: 4}},
		{ParallelOptions{Workers: 2, Groups: 8}, ParallelOptions{Workers: 2, Groups: 8}},
		{ParallelOptions{Workers: -1, Groups: -1}, ParallelOptions{Workers: 1, Groups: 1}},
	}
	for _, c := range cases {
		if got := c.in.Normalize(); got != c.want {
			t.Errorf("Normalize(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}
