package core

import (
	"testing"

	"repro/internal/miurtree"
	"repro/internal/textrel"
)

// The Section 7 method must return exactly the same maximized count as the
// in-memory exact method — it only changes *which* users get their top-k
// computed, never the answer.
func TestUserIndexedMatchesExact(t *testing.T) {
	for _, measure := range []textrel.MeasureKind{textrel.LM, textrel.KO} {
		for seed := int64(40); seed < 44; seed++ {
			f := newFixture(t, measure, 0.5, 400, 60, 5, seed)
			q := f.query(2, 5)
			if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
				t.Fatal(err)
			}
			want, err := f.engine.Select(q, KeywordsExact, ParallelOptions{})
			if err != nil {
				t.Fatal(err)
			}

			ut := miurtree.Build(f.us.Users, f.scorer, 8)
			engine2 := NewEngine(f.tree, f.scorer, f.us.Users)
			got, stats, err := engine2.SelectUserIndexed(q, KeywordsExact, ut)
			if err != nil {
				t.Fatal(err)
			}
			if got.Count() != want.Count() {
				t.Fatalf("%s seed %d: user-indexed count %d, exact %d", measure, seed, got.Count(), want.Count())
			}
			if stats.TotalUsers != 60 {
				t.Errorf("stats total = %d", stats.TotalUsers)
			}
			if stats.ResolvedUsers > stats.TotalUsers {
				t.Errorf("resolved %d > total %d", stats.ResolvedUsers, stats.TotalUsers)
			}
			if p := stats.PrunedPercent(); p < 0 || p > 100 {
				t.Errorf("pruned%% = %v", p)
			}
		}
	}
}

func TestUserIndexedApproxWithinExact(t *testing.T) {
	f := newFixture(t, textrel.LM, 0.5, 400, 50, 4, 77)
	q := f.query(3, 5)
	ut := miurtree.Build(f.us.Users, f.scorer, 8)

	exactEngine := NewEngine(f.tree, f.scorer, f.us.Users)
	exact, _, err := exactEngine.SelectUserIndexed(q, KeywordsExact, ut)
	if err != nil {
		t.Fatal(err)
	}
	approxEngine := NewEngine(f.tree, f.scorer, f.us.Users)
	approx, _, err := approxEngine.SelectUserIndexed(q, KeywordsApprox, ut)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Count() > exact.Count() {
		t.Fatalf("approx %d beats exact %d", approx.Count(), exact.Count())
	}
}

func TestUserIndexedSometimesPrunes(t *testing.T) {
	// Sparse users spread wide with distant candidate locations give the
	// hierarchy something to prune. Aggregate over seeds: at least one run
	// should avoid resolving every user.
	anyPruned := false
	for seed := int64(90); seed < 96; seed++ {
		f := newFixture(t, textrel.LM, 0.9, 600, 120, 3, seed)
		q := f.query(2, 3)
		ut := miurtree.Build(f.us.Users, f.scorer, 4)
		engine := NewEngine(f.tree, f.scorer, f.us.Users)
		_, stats, err := engine.SelectUserIndexed(q, KeywordsExact, ut)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ResolvedUsers < stats.TotalUsers {
			anyPruned = true
		}
	}
	if !anyPruned {
		t.Log("note: no pruning observed on these seeds (counts remain correct)")
	}
}

func TestUserIndexedValidation(t *testing.T) {
	f := newFixture(t, textrel.KO, 0.5, 200, 20, 3, 123)
	ut := miurtree.Build(f.us.Users, f.scorer, 8)
	engine := NewEngine(f.tree, f.scorer, f.us.Users)
	q := f.query(2, 5)
	q.K = 0
	if _, _, err := engine.SelectUserIndexed(q, KeywordsExact, ut); err == nil {
		t.Error("invalid query should be rejected")
	}
}

func TestUserIndexedEmptyUsers(t *testing.T) {
	f := newFixture(t, textrel.KO, 0.5, 200, 20, 3, 321)
	ut := miurtree.Build(nil, f.scorer, 8)
	engine := NewEngine(f.tree, f.scorer, nil)
	sel, stats, err := engine.SelectUserIndexed(f.query(1, 5), KeywordsExact, ut)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != 0 || stats.ResolvedUsers != 0 {
		t.Errorf("empty users: sel=%d resolved=%d", sel.Count(), stats.ResolvedUsers)
	}
}

func TestPrunedPercent(t *testing.T) {
	s := UserIndexStats{TotalUsers: 200, ResolvedUsers: 180}
	if got := s.PrunedPercent(); got != 10 {
		t.Errorf("PrunedPercent = %v, want 10", got)
	}
	if got := (UserIndexStats{}).PrunedPercent(); got != 0 {
		t.Errorf("zero-user PrunedPercent = %v", got)
	}
}
