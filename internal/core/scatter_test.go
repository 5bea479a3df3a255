package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/container"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// replayBest folds scatter candidates the way the coordinator does for
// Select: scan in (|LU| descending, location index ascending) order and
// keep the first strictly-greater count — the single-index first-max.
func replayBest(cands []ScatterCandidate) Selection {
	ordered := append([]ScatterCandidate(nil), cands...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].LU != ordered[j].LU {
			return ordered[i].LU > ordered[j].LU
		}
		return ordered[i].Sel.LocIndex < ordered[j].Sel.LocIndex
	})
	best := Selection{LocIndex: -1}
	for _, c := range ordered {
		if c.Sel.Count() > best.Count() {
			best = c.Sel
		}
	}
	best.normalize()
	return best
}

// replayTopL folds scatter candidates the way the coordinator does for
// SelectTopL: replay the bounded-heap offers in scan order, then present
// like the single-index path.
func replayTopL(cands []ScatterCandidate, l int) []Selection {
	ordered := append([]ScatterCandidate(nil), cands...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].LU != ordered[j].LU {
			return ordered[i].LU > ordered[j].LU
		}
		return ordered[i].Sel.LocIndex < ordered[j].Sel.LocIndex
	})
	best := container.NewTopK[Selection](l)
	for _, c := range ordered {
		best.Offer(c.Sel, float64(c.Sel.Count()))
	}
	out := best.PopAscending()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count() != out[j].Count() {
			return out[i].Count() > out[j].Count()
		}
		return out[i].LocIndex < out[j].LocIndex
	})
	return out
}

// replayExhaustive folds per-location bests in ascending location order
// with the strict first-max of the flat Baseline scan.
func replayExhaustive(cands []ScatterCandidate) Selection {
	best := Selection{LocIndex: -1}
	for _, c := range cands { // ScatterSelect returns ascending LocIndex
		if c.Sel.Count() > best.Count() {
			best = c.Sel
		}
	}
	best.normalize()
	return best
}

// flatBaseline is Section 4's exhaustive scan as one flat loop: every
// location × every combination of exactly ws keywords against every user,
// keeping the first strictly greater count. It is the oracle for Baseline
// and for the exhaustive scatter replay, which both fold per-location
// bests instead.
func flatBaseline(e *Engine, q Query) Selection {
	best := Selection{LocIndex: -1}
	for li := range q.Locations {
		container.Combinations(q.Keywords, q.WS, func(combo []vocab.TermID) bool {
			add := append([]vocab.TermID(nil), combo...)
			doc := q.OxDoc.MergeTerms(add)
			var users []int32
			for ui := range e.Users {
				if e.isBRSTkNN(q, li, doc, ui) {
					users = append(users, e.Users[ui].ID)
				}
			}
			if len(users) > best.Count() {
				best = Selection{LocIndex: li, Location: q.Locations[li], Keywords: add, Users: users}
			}
			return true
		})
	}
	best.normalize()
	return best
}

// splitLocations deals location indexes round-robin into n disjoint
// assignment sets covering every index.
func splitLocations(nLocs, n int) [][]int {
	out := make([][]int, n)
	for li := 0; li < nLocs; li++ {
		out[li%n] = append(out[li%n], li)
	}
	return out
}

// TestScatterSelectReplayEquivalence: evaluating disjoint location subsets
// via ScatterSelect and replaying the merged candidates must reproduce
// the unpruned best-first scan (which Select must match too), SelectTopL,
// and the flat exhaustive scan (which Baseline must match too)
// byte-for-byte — for both keyword methods, with and without a forwarded
// floor, across split widths.
func TestScatterSelectReplayEquivalence(t *testing.T) {
	// Under LM every location of this fixture has the same |LU_ℓ| and
	// count; under KO both spread out, so floor skips, incumbent skips
	// and top-l evictions all take effect.
	for _, measure := range []textrel.MeasureKind{textrel.LM, textrel.KO} {
		f := newFixture(t, measure, 0.5, 400, 40, 24, 21)
		q := f.query(2, 4)
		if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
			t.Fatal(err)
		}
		checkScatterReplay(t, f, q)
	}
}

func checkScatterReplay(t *testing.T, f *fixture, q Query) {
	t.Helper()
	for _, method := range []KeywordMethod{KeywordsExact, KeywordsApprox} {
		want := unprunedSelect(f.engine, q, method)
		if got, err := f.engine.Select(q, method, ParallelOptions{}); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("method=%v: Select = %+v (%v), unpruned scan = %+v", method, got, err, want)
		}
		// l = 3 keeps a shortlist; l = |L| keeps every positive candidate.
		ls := []int{3, len(q.Locations)}
		wantL := make([][]Selection, len(ls))
		for i, l := range ls {
			var err error
			if wantL[i], err = f.engine.SelectTopL(q, method, l); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int{1, 2, 4} {
			parts := splitLocations(len(q.Locations), n)
			var merged, mergedL []ScatterCandidate
			for _, part := range parts {
				cands, st, err := f.engine.ScatterSelect(q, method, ScatterBest, part, 0, 2)
				if err != nil {
					t.Fatal(err)
				}
				if st.Evaluated != len(cands) && st.Evaluated < len(cands) {
					t.Fatalf("evaluated %d < returned %d", st.Evaluated, len(cands))
				}
				merged = append(merged, cands...)
				candsL, _, err := f.engine.ScatterSelect(q, method, ScatterTopL, part, 0, 2)
				if err != nil {
					t.Fatal(err)
				}
				mergedL = append(mergedL, candsL...)
			}
			if got := replayBest(merged); !reflect.DeepEqual(got, want) {
				t.Fatalf("method=%v n=%d: replayed best differs: %+v vs %+v", method, n, got, want)
			}
			for i, l := range ls {
				if got := replayTopL(mergedL, l); !reflect.DeepEqual(got, wantL[i]) {
					t.Fatalf("method=%v n=%d l=%d: replayed top-l differs", method, n, l)
				}
			}

			// Second wave with the forwarded floor = the achieved best
			// count: skipping below-floor candidates must not change the
			// replayed answer.
			var floored []ScatterCandidate
			skipped := 0
			for _, part := range parts {
				cands, st, err := f.engine.ScatterSelect(q, method, ScatterBest, part, want.Count(), 2)
				if err != nil {
					t.Fatal(err)
				}
				skipped += st.SkippedFloor
				floored = append(floored, cands...)
			}
			if got := replayBest(floored); !reflect.DeepEqual(got, want) {
				t.Fatalf("method=%v n=%d: floored replay differs", method, n)
			}
			if want.Count() > 1 && skipped == 0 && n > 1 {
				t.Logf("method=%v n=%d: floor skipped nothing (ok, but unexpected on this fixture)", method, n)
			}
		}
	}

	// An unreachable floor skips every candidate evaluation.
	all := splitLocations(len(q.Locations), 1)[0]
	cands, st, err := f.engine.ScatterSelect(q, KeywordsExact, ScatterBest, all, len(f.us.Users)+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 || st.Evaluated != 0 || st.SkippedFloor != st.Assigned || st.Assigned == 0 {
		t.Fatalf("unreachable floor: cands=%d stats=%+v", len(cands), st)
	}

	// Exhaustive mode against the flat exhaustive scan.
	wantB := flatBaseline(f.engine, q)
	if got, err := f.engine.Baseline(q); err != nil || !reflect.DeepEqual(got, wantB) {
		t.Fatalf("Baseline = %+v (%v), flat scan = %+v", got, err, wantB)
	}
	for _, n := range []int{1, 3} {
		var merged []ScatterCandidate
		for _, part := range splitLocations(len(q.Locations), n) {
			cands, _, err := f.engine.ScatterSelect(q, KeywordsExact, ScatterExhaustive, part, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			merged = append(merged, cands...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].Sel.LocIndex < merged[j].Sel.LocIndex })
		if got := replayExhaustive(merged); !reflect.DeepEqual(got, wantB) {
			t.Fatalf("n=%d: replayed exhaustive differs: %+v vs %+v", n, got, wantB)
		}
	}
}

// TestWithThresholdsClone: a threshold clone answers like an engine
// prepared the ordinary way, and clones with different thresholds do not
// interfere with the parent.
func TestWithThresholdsClone(t *testing.T) {
	f := newFixture(t, textrel.LM, 0.5, 300, 30, 16, 22)
	q := f.query(2, 3)
	if err := f.engine.PrepareJoint(q.K, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	want, err := f.engine.Select(q, KeywordsExact, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rsk := append([]float64(nil), f.engine.RSk()...)

	fresh := NewEngine(f.tree, f.scorer, f.us.Users)
	clone, err := fresh.WithThresholds(q.K, rsk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := clone.Select(q, KeywordsExact, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("threshold clone answers differently")
	}
	// The parent stays unprepared: Select on it must fail.
	if _, err := fresh.Select(q, KeywordsExact, ParallelOptions{}); err == nil {
		t.Fatal("unprepared parent unexpectedly answered")
	}
	// Bad inputs.
	if _, err := fresh.WithThresholds(0, rsk); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := fresh.WithThresholds(3, rsk[:1]); err == nil {
		t.Fatal("short rsk accepted")
	}
}
