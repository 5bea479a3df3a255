package core

import (
	"testing"

	"repro/internal/textrel"
)

func TestSelectTopLRankedAndConsistent(t *testing.T) {
	f := newFixture(t, textrel.LM, 0.5, 400, 50, 8, 1100)
	q := f.query(2, 5)
	if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	top3, err := f.engine.SelectTopL(q, KeywordsExact, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top3) == 0 {
		t.Skip("no location attracts any user on this instance")
	}
	// descending counts, distinct locations
	seen := map[int]bool{}
	for i, s := range top3 {
		if i > 0 && top3[i-1].Count() < s.Count() {
			t.Fatalf("shortlist not descending at %d", i)
		}
		if seen[s.LocIndex] {
			t.Fatalf("location %d appears twice", s.LocIndex)
		}
		seen[s.LocIndex] = true
	}
	// the shortlist head must equal the single-selection winner's count
	single, err := f.engine.Select(q, KeywordsExact, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if top3[0].Count() != single.Count() {
		t.Fatalf("top-1 of shortlist %d != Select %d", top3[0].Count(), single.Count())
	}
}

func TestSelectTopLCoversAllLocationsWhenLLarge(t *testing.T) {
	f := newFixture(t, textrel.KO, 0.5, 300, 30, 5, 1200)
	q := f.query(2, 5)
	if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	all, err := f.engine.SelectTopL(q, KeywordsApprox, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) > len(q.Locations) {
		t.Fatalf("returned %d selections for %d locations", len(all), len(q.Locations))
	}
}

func TestSelectTopLValidation(t *testing.T) {
	f := newFixture(t, textrel.KO, 0.5, 200, 20, 3, 1300)
	q := f.query(2, 5)
	if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.SelectTopL(q, KeywordsExact, 0); err == nil {
		t.Error("l=0 should be rejected")
	}
}

func TestSelectMultipleCoversMoreDistinctUsers(t *testing.T) {
	f := newFixture(t, textrel.LM, 0.5, 500, 60, 8, 1400)
	q := f.query(2, 5)
	if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	single, err := f.engine.Select(q, KeywordsApprox, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := f.engine.SelectMultiple(q, KeywordsApprox, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) == 0 {
		t.Skip("no coverage on this instance")
	}
	// placements must cover disjoint user sets
	covered := map[int32]bool{}
	for _, sel := range multi {
		for _, uid := range sel.Users {
			if covered[uid] {
				t.Fatalf("user %d covered twice", uid)
			}
			covered[uid] = true
		}
	}
	if len(covered) < single.Count() {
		t.Fatalf("multi-placement coverage %d below single placement %d", len(covered), single.Count())
	}
	// first round must match the single selection
	if multi[0].Count() != single.Count() {
		t.Fatalf("round 1 count %d != single %d", multi[0].Count(), single.Count())
	}
	// thresholds restored afterwards: a repeat single run agrees
	again, err := f.engine.Select(q, KeywordsApprox, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Count() != single.Count() {
		t.Fatalf("engine state leaked: %d vs %d", again.Count(), single.Count())
	}
}

func TestSelectMultipleStopsWhenExhausted(t *testing.T) {
	f := newFixture(t, textrel.KO, 0.5, 300, 10, 3, 1500)
	q := f.query(1, 5)
	if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	// far more rounds than users: must stop early without error
	multi, err := f.engine.SelectMultiple(q, KeywordsExact, 50)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sel := range multi {
		total += sel.Count()
	}
	if total > 10 {
		t.Fatalf("covered %d users, only 10 exist", total)
	}
	if _, err := f.engine.SelectMultiple(q, KeywordsExact, 0); err == nil {
		t.Error("m=0 should be rejected")
	}
}

func TestSelectNoBestFirstSameAnswer(t *testing.T) {
	for seed := int64(1600); seed < 1604; seed++ {
		f := newFixture(t, textrel.LM, 0.5, 300, 30, 6, seed)
		q := f.query(2, 5)
		if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
			t.Fatal(err)
		}
		a, err := f.engine.Select(q, KeywordsExact, ParallelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.engine.SelectNoBestFirst(q, KeywordsExact)
		if err != nil {
			t.Fatal(err)
		}
		if a.Count() != b.Count() {
			t.Fatalf("seed %d: ordering changed the answer: %d vs %d", seed, a.Count(), b.Count())
		}
	}
}
