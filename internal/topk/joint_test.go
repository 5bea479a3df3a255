package topk

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

func setup(t testing.TB, measure textrel.MeasureKind, nObjects, nUsers int) (*irtree.Tree, *textrel.Scorer, dataset.UserSet) {
	t.Helper()
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: nObjects, VocabSize: 400, MeanTags: 5, NumCluster: 8, Zipf: 1.2, Seed: 5,
	})
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: nUsers, UL: 3, UW: 20, Area: 20, Seed: 13})
	scorer := textrel.NewScorer(ds, measure, 0.5, dataset.UsersMBR(us.Users))
	tree := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 16})
	return tree, scorer, us
}

func TestBuildSuperUser(t *testing.T) {
	v := vocab.New()
	a, b, c := v.Add("a"), v.Add("b"), v.Add("c")
	ds := dataset.Build([]dataset.Object{
		{ID: 0, Loc: geo.Point{X: 0, Y: 0}, Doc: vocab.DocFromTerms([]vocab.TermID{a, b, c})},
		{ID: 1, Loc: geo.Point{X: 10, Y: 10}, Doc: vocab.DocFromTerms([]vocab.TermID{a})},
	}, v)
	scorer := textrel.NewScorer(ds, textrel.KO, 0.5)
	users := []dataset.User{
		{ID: 0, Loc: geo.Point{X: 1, Y: 2}, Doc: vocab.DocFromTerms([]vocab.TermID{a, b})},
		{ID: 1, Loc: geo.Point{X: 3, Y: 1}, Doc: vocab.DocFromTerms([]vocab.TermID{a, c})},
		{ID: 2, Loc: geo.Point{X: 2, Y: 4}, Doc: vocab.DocFromTerms([]vocab.TermID{a})},
	}
	su := BuildSuperUser(users, scorer)
	if su.NumUsers != 3 {
		t.Errorf("NumUsers = %d", su.NumUsers)
	}
	if want := (geo.Rect{Min: geo.Point{X: 1, Y: 1}, Max: geo.Point{X: 3, Y: 4}}); su.MBR != want {
		t.Errorf("MBR = %v, want %v", su.MBR, want)
	}
	if len(su.Uni) != 3 {
		t.Errorf("Uni = %v, want all three terms", su.Uni)
	}
	if len(su.Int) != 1 || su.Int[0] != a {
		t.Errorf("Int = %v, want [a]", su.Int)
	}
	// KO norms: |u.d| → min 1, max 2
	if su.MinNorm != 1 || su.MaxNorm != 2 {
		t.Errorf("norms = %v/%v, want 1/2", su.MinNorm, su.MaxNorm)
	}
}

func TestBuildSuperUserEmpty(t *testing.T) {
	ds := dataset.Build(nil, vocab.New())
	scorer := textrel.NewScorer(ds, textrel.KO, 0.5)
	su := BuildSuperUser(nil, scorer)
	if su.NumUsers != 0 || su.MinNorm != 1 || su.MaxNorm != 1 {
		t.Errorf("empty super-user = %+v", su)
	}
}

// Headline correctness: the joint pipeline must produce exactly the same
// per-user RSk and top-k scores as the per-user baseline (which itself is
// verified against brute force in the irtree package) — for all measures.
func TestJointMatchesBaseline(t *testing.T) {
	for _, measure := range []textrel.MeasureKind{textrel.LM, textrel.TFIDF, textrel.KO, textrel.BM25} {
		tree, scorer, us := setup(t, measure, 800, 40)
		for _, k := range []int{1, 5, 10} {
			joint, err := JointTopK(tree, scorer, us.Users, k, 1, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			base, err := BaselineTopK(tree, scorer, us.Users, k)
			if err != nil {
				t.Fatal(err)
			}
			for ui := range us.Users {
				j, b := joint.PerUser[ui], base[ui]
				if math.Abs(j.RSk-b.RSk) > 1e-9 {
					t.Fatalf("%s k=%d user %d: joint RSk %v, baseline %v", measure, k, ui, j.RSk, b.RSk)
				}
				if len(j.Results) != len(b.Results) {
					t.Fatalf("%s k=%d user %d: %d vs %d results", measure, k, ui, len(j.Results), len(b.Results))
				}
				for i := range j.Results {
					if math.Abs(j.Results[i].Score-b.Results[i].Score) > 1e-9 {
						t.Fatalf("%s k=%d user %d rank %d: %v vs %v",
							measure, k, ui, i, j.Results[i].Score, b.Results[i].Score)
					}
				}
			}
		}
	}
}

// The joint traversal must use strictly less I/O than the baseline's
// per-user traversals — the whole point of Section 5.
func TestJointIOCheaperThanBaseline(t *testing.T) {
	tree, scorer, us := setup(t, textrel.LM, 1500, 60)
	tree.IO().Reset()
	if _, err := JointTopK(tree, scorer, us.Users, 10, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	jointIO := tree.IO().Total()

	tree.IO().Reset()
	if _, err := BaselineTopK(tree, scorer, us.Users, 10); err != nil {
		t.Fatal(err)
	}
	baseIO := tree.IO().Total()

	if jointIO >= baseIO {
		t.Errorf("joint I/O %d should be < baseline I/O %d", jointIO, baseIO)
	}
	if jointIO == 0 || baseIO == 0 {
		t.Error("I/O accounting inactive")
	}
}

// Every node is read at most once by Algorithm 1.
func TestTraverseVisitsNodesOnce(t *testing.T) {
	tree, scorer, us := setup(t, textrel.LM, 1000, 30)
	su := BuildSuperUser(us.Users, scorer)
	tree.IO().Reset()
	if _, err := TraverseWith(tree, scorer, su, 10, &TraverseScratch{}); err != nil {
		t.Fatal(err)
	}
	if visits := tree.IO().NodeVisits(); visits > int64(tree.NumNodes()) {
		t.Errorf("visited %d nodes, tree has only %d — duplicate visits", visits, tree.NumNodes())
	}
}

// Completeness of Algorithm 1: every object in any user's true top-k must
// appear among the traversal's candidates (LO ∪ RO).
func TestTraversalCandidatesComplete(t *testing.T) {
	for _, measure := range []textrel.MeasureKind{textrel.LM, textrel.KO} {
		tree, scorer, us := setup(t, measure, 600, 25)
		k := 5
		su := BuildSuperUser(us.Users, scorer)
		tr, err := TraverseWith(tree, scorer, su, k, &TraverseScratch{})
		if err != nil {
			t.Fatal(err)
		}
		inCands := map[int32]bool{}
		for _, o := range tr.Candidates() {
			inCands[o.ObjID] = true
		}
		base, err := BaselineTopK(tree, scorer, us.Users, k)
		if err != nil {
			t.Fatal(err)
		}
		for ui, b := range base {
			for _, r := range b.Results {
				// ties may be swapped between equal-scoring objects; require
				// either candidate membership or a strictly tied score with a
				// candidate of identical score (rare; check membership first)
				if !inCands[r.ObjID] {
					tied := false
					for _, o := range tr.Candidates() {
						obj := &tree.Dataset().Objects[o.ObjID]
						u := &us.Users[ui]
						s := scorer.STS(obj.Loc, obj.Doc, u.Loc, u.Doc, scorer.Norm(u.Doc))
						if math.Abs(s-r.Score) < 1e-12 {
							tied = true
							break
						}
					}
					if !tied {
						t.Fatalf("%s: top-k object %d of user %d missing from candidates", measure, r.ObjID, ui)
					}
				}
			}
		}
	}
}

func TestTraverseROUBDescending(t *testing.T) {
	tree, scorer, us := setup(t, textrel.LM, 800, 30)
	su := BuildSuperUser(us.Users, scorer)
	tr, err := TraverseWith(tree, scorer, su, 5, &TraverseScratch{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tr.RO); i++ {
		if tr.RO[i-1].UB < tr.RO[i].UB {
			t.Fatalf("RO not descending at %d", i)
		}
	}
	for _, o := range tr.Candidates() {
		if o.LB > o.UB+1e-12 {
			t.Fatalf("object %d has LB %v > UB %v", o.ObjID, o.LB, o.UB)
		}
	}
}

func TestTraverseEmptyTree(t *testing.T) {
	ds := dataset.Build(nil, vocab.New())
	scorer := textrel.NewScorer(ds, textrel.KO, 0.5)
	tree := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree})
	tr, err := TraverseWith(tree, scorer, SuperUser{NumUsers: 1, MinNorm: 1, MaxNorm: 1}, 3, &TraverseScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Candidates()) != 0 {
		t.Error("empty tree should yield no candidates")
	}
}

func TestJointKLargerThanObjects(t *testing.T) {
	tree, scorer, us := setup(t, textrel.KO, 300, 10)
	joint, err := JointTopK(tree, scorer, us.Users, 400, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ui, p := range joint.PerUser {
		if len(p.Results) != 300 {
			t.Fatalf("user %d: %d results, want all 300", ui, len(p.Results))
		}
		if p.RSk != -math.MaxFloat64 {
			t.Fatalf("user %d: RSk = %v, want -MaxFloat64", ui, p.RSk)
		}
	}
}
