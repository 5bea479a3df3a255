package topk

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/irtree"
	"repro/internal/textrel"
)

func groupedFixture(t *testing.T, nObjects, nUsers int, seed int64) (*irtree.Tree, *textrel.Scorer, []dataset.User) {
	t.Helper()
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: nObjects, VocabSize: 200, MeanTags: 5, NumCluster: 5, Zipf: 1.1, Seed: seed,
	})
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: nUsers, UL: 3, UW: 15, Area: 30, Seed: seed + 1})
	scorer := textrel.NewScorer(ds, textrel.LM, 0.5, dataset.UsersMBR(us.Users))
	tree := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 16})
	return tree, scorer, us.Users
}

func TestPartitionUsersIsAPartition(t *testing.T) {
	_, _, users := groupedFixture(t, 300, 97, 3)
	for _, groups := range []int{1, 2, 3, 4, 7, 16, 97, 200} {
		parts := PartitionUsers(users, groups)
		want := groups
		if want > len(users) {
			want = len(users)
		}
		if len(parts) != want {
			t.Errorf("groups=%d: got %d parts, want %d", groups, len(parts), want)
		}
		seen := make(map[int]bool)
		for _, part := range parts {
			if len(part) == 0 {
				t.Errorf("groups=%d: empty part", groups)
			}
			for _, ui := range part {
				if seen[ui] {
					t.Fatalf("groups=%d: user %d in two parts", groups, ui)
				}
				seen[ui] = true
			}
		}
		if len(seen) != len(users) {
			t.Errorf("groups=%d: %d users assigned, want %d", groups, len(seen), len(users))
		}
	}
}

func TestPartitionUsersEmpty(t *testing.T) {
	if parts := PartitionUsers(nil, 4); parts != nil {
		t.Fatalf("empty user set produced parts: %v", parts)
	}
}

// TestJointTopKParallelEquivalence is the topk half of the determinism
// guarantee: every (workers, groups) combination, unseeded or with
// forwarded seeds, must reproduce the unpruned single-traversal oracle
// exactly — same RSk, same top-k objects, same order — and agree in score
// with the per-user IR-tree search of Section 4.
func TestJointTopKParallelEquivalence(t *testing.T) {
	tree, scorer, users := groupedFixture(t, 400, 60, 11)
	const k = 5
	want := oracleTopK(t, tree, scorer, users, k)
	base, err := BaselineTopK(tree, scorer, users, k)
	if err != nil {
		t.Fatal(err)
	}
	for ui := range want {
		if math.Abs(want[ui].RSk-base[ui].RSk) > 1e-9 {
			t.Fatalf("user %d: oracle RSk %v, IR-tree search %v", ui, want[ui].RSk, base[ui].RSk)
		}
	}
	// Forwarded seeds as a coordinator would send them: lower bounds on
	// each user's global k-th score, here exact, halved or absent.
	seeds := make([]float64, len(users))
	for ui, w := range want {
		if w.RSk > 0 {
			seeds[ui] = w.RSk * []float64{1, 0.5, 0}[ui%3]
		}
	}
	for _, sd := range []struct {
		name  string
		seeds []float64
	}{{"nil", nil}, {"forwarded", seeds}} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, groups := range []int{1, 3, 4, 8, 9} {
				got, err := JointTopK(tree, scorer, users, k, workers, groups, sd.seeds)
				if err != nil {
					t.Fatalf("workers=%d groups=%d: %v", workers, groups, err)
				}
				sameTopK(t, fmt.Sprintf("seeds=%s workers=%d groups=%d", sd.name, workers, groups), got.PerUser, want)
			}
		}
	}
}

// TestPrunedRefinementMatchesUnpruned asserts the lossless-pruning claim
// directly: for every user, the suffix-maxima-pruned refinement (what
// IndividualTopKWith and JointTopK run) returns exactly what the unpruned
// Algorithm 2 scan (unprunedTopK, the test oracle) returns — scores,
// order, and RSk.
func TestPrunedRefinementMatchesUnpruned(t *testing.T) {
	for _, measure := range []textrel.MeasureKind{textrel.LM, textrel.TFIDF, textrel.KO} {
		tree, scorer, users := groupedFixture(t, 600, 40, int64(17+measure))
		su := BuildSuperUser(users, scorer)
		tr, err := TraverseWith(tree, scorer, su, 5, &TraverseScratch{})
		if err != nil {
			t.Fatal(err)
		}
		norms := scorer.UserNorms(users)
		ds := tree.Dataset()
		want := make([]UserTopK, len(users))
		for ui := range users {
			want[ui] = unprunedTopK(ds, scorer, &users[ui], norms[ui], tr, 5)
		}
		got := IndividualTopKWith(ds, scorer, users, norms, tr, NewRefineIndex(tr), 5)
		sameTopK(t, measure.String(), got, want)
	}
}

// TestGroupedTraversalCoversUserTopK checks the grouped soundness
// argument directly: each group traversal's candidate set contains every
// object of its users' exact (baseline-computed) top-k.
func TestGroupedTraversalCoversUserTopK(t *testing.T) {
	tree, scorer, users := groupedFixture(t, 400, 40, 19)
	const k = 4
	base, err := BaselineTopK(tree, scorer, users, k)
	if err != nil {
		t.Fatal(err)
	}
	parts := PartitionUsers(users, 5)
	for g, part := range parts {
		gu := make([]dataset.User, len(part))
		for i, ui := range part {
			gu[i] = users[ui]
		}
		su := BuildSuperUser(gu, scorer)
		tr, err := TraverseWith(tree, scorer, su, k, &TraverseScratch{})
		if err != nil {
			t.Fatal(err)
		}
		inCands := make(map[int32]bool)
		for _, o := range tr.Candidates() {
			inCands[o.ObjID] = true
		}
		for _, ui := range part {
			for _, r := range base[ui].Results {
				if !inCands[r.ObjID] {
					t.Fatalf("group %d: user %d top-k object %d missing from group candidates", g, ui, r.ObjID)
				}
			}
		}
	}
}
