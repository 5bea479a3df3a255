package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// kernelCase is one seeded instance for the count-kernel tests. Wide
// cases give users more candidate terms than memoMaxWidth, so the kernel
// must take its unmemoized path for them.
type kernelCase struct {
	measure textrel.MeasureKind
	seed    int64
	ul, uw  int
	ws      int
}

func (c kernelCase) String() string {
	return fmt.Sprintf("%s/seed%d/ul%d-uw%d-ws%d", c.measure, c.seed, c.ul, c.uw, c.ws)
}

func kernelCases() []kernelCase {
	var out []kernelCase
	for i, m := range []textrel.MeasureKind{textrel.LM, textrel.TFIDF, textrel.KO, textrel.BM25} {
		seed := int64(60 + 7*i)
		out = append(out,
			kernelCase{measure: m, seed: seed, ul: 3, uw: 12, ws: 3},
			kernelCase{measure: m, seed: seed + 1, ul: 13, uw: 14, ws: 2},
		)
	}
	return out
}

// kernelFixture builds and prepares an engine for c and returns it with a
// query whose ox.d shares two terms with W and holds one term outside it.
func kernelFixture(t *testing.T, c kernelCase) (*Engine, Query) {
	t.Helper()
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 300, VocabSize: 120, MeanTags: 5, NumCluster: 5, Zipf: 1.1, Seed: c.seed,
	})
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 60, UL: c.ul, UW: c.uw, Area: 20, Seed: c.seed + 1})
	locs := dataset.CandidateLocations(us.Region, 6, 1.0, c.seed+2)
	scorer := textrel.NewScorer(ds, c.measure, 0.3, dataset.UsersMBR(us.Users), geo.MBR(locs))
	tree := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 16})
	e := NewEngine(tree, scorer, us.Users)
	q := Query{Locations: locs, Keywords: us.Keywords, WS: c.ws, K: 3}
	if err := e.PrepareJoint(q.K, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	outside := vocab.TermID(0)
	for w := newKeywordSet(q); w.set[outside]; outside++ {
	}
	q.OxDoc = vocab.NewDoc(map[vocab.TermID]int32{
		us.Keywords[0]: 2, us.Keywords[len(us.Keywords)-1]: 1, outside: 1,
	})
	return e, q
}

// forEachCombo calls fn with the candidate indexes and terms of every
// combination of p, in the scan's (size, lead, lexicographic) order.
func forEachCombo(p *exactPrep, fn func(idx []int32, terms []vocab.TermID)) {
	all := make([]int32, len(p.cand))
	for i := range all {
		all[i] = int32(i)
	}
	terms := make([]vocab.TermID, 0, p.maxSize)
	for size := 1; size <= p.maxSize; size++ {
		container.Combinations(all, size, func(idx []int32) bool {
			terms = terms[:0]
			for _, ci := range idx {
				terms = append(terms, p.cand[ci])
			}
			fn(idx, terms)
			return true
		})
	}
}

// TestCountComboMatchesTupleUsers is the differential test of the count
// kernel: on every combination of every candidate location, countCombo —
// with one warm scratch, so later combinations hit memo slots earlier
// ones filled — equals the exact user count tupleUsersInto materializes.
func TestCountComboMatchesTupleUsers(t *testing.T) {
	for _, c := range kernelCases() {
		t.Run(c.String(), func(t *testing.T) {
			e, q := kernelFixture(t, c)
			w := newKeywordSet(q)
			combos, wide, oxShared := 0, 0, 0
			for _, lc := range e.locationCandidates(q, w, true) {
				p := e.prepareExact(q, lc, w)
				for _, cu := range p.contested {
					if cu.memoOff < 0 {
						wide++
					}
				}
				for i := range p.cand {
					if !p.newTerm[i] {
						oxShared++
					}
				}
				var sc, ref exactScratch
				sc.bind(&p)
				forEachCombo(&p, func(idx []int32, terms []vocab.TermID) {
					combos++
					got := e.countCombo(q, &p, idx, &sc)
					want := len(e.tupleUsersInto(q, p.li, terms, p.contested, p.alwaysIn, &ref))
					if got != want {
						t.Fatalf("location %d combo %v: countCombo %d, tupleUsersInto %d", p.li, terms, got, want)
					}
				})
			}
			if combos == 0 {
				t.Fatal("instance evaluated no combinations")
			}
			if oxShared == 0 {
				t.Error("ox.d shared no term with any location's candidates")
			}
			if c.ul > memoMaxWidth && wide == 0 {
				t.Errorf("wide case produced no user wider than memoMaxWidth=%d", memoMaxWidth)
			}
		})
	}
}

// oracleExact is the combination scan before the count kernel: every
// combination in enumeration order, each scored by tupleUsersInto, the
// first strictly beating the floor and all earlier ones winning.
func oracleExact(e *Engine, q Query, lc locCandidate, w keywordSet) Selection {
	p := e.prepareExact(q, lc, w)
	best := p.bare
	var sc exactScratch
	forEachCombo(&p, func(_ []int32, terms []vocab.TermID) {
		users := e.tupleUsersInto(q, p.li, terms, p.contested, p.alwaysIn, &sc)
		if len(users) > best.Count() {
			best = Selection{
				LocIndex: p.li,
				Location: q.Locations[p.li],
				Keywords: append([]vocab.TermID(nil), terms...),
				Users:    append([]int32(nil), users...),
			}
		}
	})
	return best
}

// TestSelectKeywordsExactMatchesOracle checks the whole kernel-driven
// scan — lazy user materialization, the achievable-max exit and the
// parallel unit reduction — against the unpruned per-combination oracle,
// per location and for Workers 1/2/4, and Select at Workers 1/2/4
// against the unpruned best-first location scan.
func TestSelectKeywordsExactMatchesOracle(t *testing.T) {
	for _, c := range kernelCases() {
		t.Run(c.String(), func(t *testing.T) {
			e, q := kernelFixture(t, c)
			w := newKeywordSet(q)
			for _, lc := range e.locationCandidates(q, w, true) {
				want := oracleExact(e, q, lc, w)
				for _, workers := range []int{1, 2, 4} {
					if got := e.selectKeywordsExact(q, lc, w, workers); !reflect.DeepEqual(got, want) {
						t.Fatalf("location %d workers %d:\n got %+v\nwant %+v", lc.li, workers, got, want)
					}
				}
			}
			want := unprunedSelect(e, q, KeywordsExact)
			for _, workers := range []int{1, 2, 4} {
				got, err := e.Select(q, KeywordsExact, ParallelOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Select workers %d = %+v, unpruned scan = %+v", workers, got, want)
				}
			}
		})
	}
}

// TestAchievableMaxExit pins the early exit: once the floor already
// reaches |alwaysIn| + |contested|, a unit scan evaluates nothing and
// reports no winner, so the location answers with its bare selection.
func TestAchievableMaxExit(t *testing.T) {
	e, q := kernelFixture(t, kernelCases()[0])
	w := newKeywordSet(q)
	lcs := e.locationCandidates(q, w, true)
	p := e.prepareExact(q, lcs[0], w)
	p.maxCount = p.bare.Count()
	var sc exactScratch
	for _, u := range p.units() {
		if r := e.scanUnit(q, &p, u, &sc); r.found {
			t.Fatalf("unit %+v found a winner past the achievable maximum", u)
		}
	}
	if sc.epoch != 0 {
		t.Errorf("scan evaluated %d combinations past the achievable maximum", sc.epoch)
	}
}

// TestCountComboAllocationFree pins the hot-path budget: on a warm
// scratch the count kernel allocates nothing per combination — neither
// on memo hits nor on misses (the scratch is re-bound each pass, which
// clears the memo without reallocating) — and a unit scan allocates only
// its winner's keyword slice.
func TestCountComboAllocationFree(t *testing.T) {
	for _, c := range []kernelCase{kernelCases()[0], kernelCases()[1]} {
		t.Run(c.String(), func(t *testing.T) {
			e, q := kernelFixture(t, c)
			w := newKeywordSet(q)
			lcs := e.locationCandidates(q, w, true)
			p := e.prepareExact(q, lcs[0], w)
			var combos [][]int32
			forEachCombo(&p, func(idx []int32, _ []vocab.TermID) {
				combos = append(combos, append([]int32(nil), idx...))
			})
			var sc exactScratch
			pass := func() {
				sc.bind(&p)
				for _, idx := range combos {
					e.countCombo(q, &p, idx, &sc)
				}
			}
			pass() // warm
			if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
				t.Errorf("countCombo over %d combinations allocates %v per pass, want 0", len(combos), allocs)
			}
			units := p.units()
			scan := func() {
				for _, u := range units {
					e.scanUnit(q, &p, u, &sc)
				}
			}
			scan()
			if allocs := testing.AllocsPerRun(10, scan); allocs > float64(len(units)) {
				t.Errorf("%d unit scans allocate %v, want at most one winner slice each", len(units), allocs)
			}
		})
	}
}

// TestKeywordsInUsersAllocations pins keyword pruning to one allocation
// per location — the returned candidate slice — with its marks scratch
// left clear for the next location.
func TestKeywordsInUsersAllocations(t *testing.T) {
	e, q := kernelFixture(t, kernelCases()[0])
	w := newKeywordSet(q)
	lcs := e.locationCandidates(q, w, true)
	marks := make([]bool, len(w.terms))
	var cand []vocab.TermID
	allocs := testing.AllocsPerRun(20, func() {
		cand = e.keywordsInUsers(lcs[0].users, w, marks)
	})
	if allocs > 1 {
		t.Errorf("keywordsInUsers allocates %v, want at most 1", allocs)
	}
	for i, m := range marks {
		if m {
			t.Fatalf("marks[%d] left set", i)
		}
	}
	want := map[vocab.TermID]bool{}
	for _, ui := range lcs[0].users {
		for _, t := range e.Users[ui].Doc.Terms() {
			if w.set[t] {
				want[t] = true
			}
		}
	}
	if len(cand) != len(want) {
		t.Fatalf("cand %v, want the %d terms of W held by the users", cand, len(want))
	}
	for i, term := range cand {
		if !want[term] || (i > 0 && cand[i-1] >= term) {
			t.Fatalf("cand %v is not W ∩ users' terms in ascending order", cand)
		}
	}
}
