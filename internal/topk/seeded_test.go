package topk

import (
	"math"
	"reflect"
	"testing"
)

// TestSeededZeroSeedsMatchUnseeded: all-zero seeds (no bound known yet)
// are no bound at all, because every score and bound in the pipeline is
// non-negative. The zero-seeded pipeline must therefore match the
// unpruned oracle exactly for every workers/groups choice — thresholds
// included, so a user with fewer than k objects keeps the −MaxFloat64
// "nothing qualifies" sentinel rather than a threshold of 0.
func TestSeededZeroSeedsMatchUnseeded(t *testing.T) {
	for _, c := range []struct {
		objects, users, k int
	}{
		{400, 60, 7},
		{6, 8, 10}, // k > |O|: every RSk is the sentinel
	} {
		tree, scorer, users := groupedFixture(t, c.objects, c.users, 11)
		want := oracleTopK(t, tree, scorer, users, c.k)
		zero := make([]float64, len(users))
		for _, wg := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {4, 4}, {3, 7}} {
			for _, seeds := range [][]float64{nil, zero} {
				got, err := JointTopK(tree, scorer, users, c.k, wg[0], wg[1], seeds)
				if err != nil {
					t.Fatal(err)
				}
				sameTopK(t, "zero-seeded", got.PerUser, want)
			}
		}
		if c.k > c.objects {
			for ui, w := range want {
				if w.RSk != -math.MaxFloat64 || len(w.Results) != c.objects {
					t.Fatalf("k > |O| user %d: oracle RSk %v with %d results", ui, w.RSk, len(w.Results))
				}
			}
		}
	}
}

// TestSeededPreservesTopKAndPrunes: seeding each user with their own exact
// k-th best score (the tightest bound a coordinator could ever forward)
// must leave every user's top-k result list equal to the unpruned
// oracle's — the seed equals the qualifying threshold, and ties survive
// the ≥ test — while visiting no more tree nodes than the unseeded run.
func TestSeededPreservesTopKAndPrunes(t *testing.T) {
	tree, scorer, users := groupedFixture(t, 600, 50, 12)
	k := 5
	want := oracleTopK(t, tree, scorer, users, k)
	base, err := JointTopK(tree, scorer, users, k, 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]float64, len(users))
	for ui, u := range want {
		if u.RSk > 0 {
			seeds[ui] = u.RSk
		}
	}
	seeded, err := JointTopK(tree, scorer, users, k, 2, 4, seeds)
	if err != nil {
		t.Fatal(err)
	}
	sameTopK(t, "seeded", seeded.PerUser, want)
	if seeded.Visited > base.Visited {
		t.Fatalf("seeded traversal visited %d nodes, unseeded %d", seeded.Visited, base.Visited)
	}
	if base.Visited == 0 {
		t.Fatal("unseeded traversal reports zero visited nodes")
	}
}

// TestTraverseFloorNonPositiveIsNoFloor: a SuperUser.Floor ≤ 0 is no
// floor — the traversal is step-for-step the unfloored one — while a
// positive floor below every user's exact threshold prunes without losing
// any object of any user's exact (IR-tree search) top-k.
func TestTraverseFloorNonPositiveIsNoFloor(t *testing.T) {
	tree, scorer, users := groupedFixture(t, 300, 20, 13)
	su := BuildSuperUser(users, scorer)
	want, err := TraverseWith(tree, scorer, su, 6, &TraverseScratch{})
	if err != nil {
		t.Fatal(err)
	}
	for _, floor := range []float64{0, -1, -math.MaxFloat64} {
		floored := su
		floored.Floor = floor
		got, err := TraverseWith(tree, scorer, floored, 6, &TraverseScratch{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Floor=%v differs from the unfloored traversal", floor)
		}
	}

	base, err := BaselineTopK(tree, scorer, users, 6)
	if err != nil {
		t.Fatal(err)
	}
	floor := math.MaxFloat64
	for _, b := range base {
		floor = min(floor, b.RSk)
	}
	if floor <= 0 {
		t.Fatalf("fixture has a user with threshold %v; a positive floor is needed", floor)
	}
	floored := su
	floored.Floor = floor
	got, err := TraverseWith(tree, scorer, floored, 6, &TraverseScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Visited > want.Visited {
		t.Fatalf("floored traversal visited %d nodes, unfloored %d", got.Visited, want.Visited)
	}
	inCands := make(map[int32]bool)
	for _, o := range got.Candidates() {
		inCands[o.ObjID] = true
	}
	for ui, b := range base {
		for _, r := range b.Results {
			if !inCands[r.ObjID] {
				t.Fatalf("user %d: top-k object %d lost to the floor", ui, r.ObjID)
			}
		}
	}
}

// TestSeededRefinementThresholdFloor: the refinement threshold never
// drops below the seed, and a seed above every candidate score (scores
// are ≤ 1 here) makes the RO scan contribute nothing — the result is
// exactly the LO-only refinement.
func TestSeededRefinementThresholdFloor(t *testing.T) {
	tree, scorer, users := groupedFixture(t, 200, 10, 14)
	su := BuildSuperUser(users[:1], scorer)
	tr, err := TraverseWith(tree, scorer, su, 3, &TraverseScratch{})
	if err != nil {
		t.Fatal(err)
	}
	norms := scorer.UserNorms(users[:1])
	ri := NewRefineIndex(tr)
	var sc refineScratch
	got := refineUser(tree.Dataset(), scorer, &users[0], norms[0], tr, &ri, 3, 2.0, &sc)
	if got.RSk < 2.0 {
		t.Fatalf("RSk %v below seed", got.RSk)
	}
	loOnly := &TraversalResult{LO: tr.LO, RSkSuper: tr.RSkSuper}
	loRI := NewRefineIndex(loOnly)
	want := refineUser(tree.Dataset(), scorer, &users[0], norms[0], loOnly, &loRI, 3, 2.0, &refineScratch{})
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatal("an all-dominating seed should reduce the scan to the LO-only refinement")
	}
}
