package topk

import (
	"slices"
	"testing"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/irtree"
	"repro/internal/textrel"
)

// unprunedTopK is the paper's Algorithm 2 for one user, exactly as
// published: score every LO candidate, then scan RO in descending group
// UB and stop at the first candidate whose UB falls below the user's
// running k-th score. It has no suffix-maxima index, no per-candidate
// skip and no seed, which makes it the oracle the pruned refinement is
// checked against. Ties keep the engine's (score, then ascending object
// ID) order, so its output is comparable byte for byte.
func unprunedTopK(ds *dataset.Dataset, scorer *textrel.Scorer, u *dataset.User, norm float64, tr *TraversalResult, k int) UserTopK {
	hu := container.NewStableTopK[irtree.Result](k)
	offer := func(o BoundedObject) {
		obj := &ds.Objects[o.ObjID]
		s := scorer.STS(obj.Loc, obj.Doc, u.Loc, u.Doc, norm)
		hu.Offer(irtree.Result{ObjID: o.ObjID, Score: s}, s, int64(o.ObjID))
	}
	for _, o := range tr.LO {
		offer(o)
	}
	for _, o := range tr.RO {
		if o.UB < hu.Threshold() {
			break
		}
		offer(o)
	}
	rsk := hu.Threshold()
	results := hu.PopAscending()
	slices.Reverse(results)
	return UserTopK{Results: results, RSk: rsk}
}

// oracleTopK is every user's exact top-k computed the unpruned way over
// one global super-user traversal: Algorithms 1 and 2 as published, with
// no grouping, no workers, no seeds and no pruning index.
func oracleTopK(t testing.TB, tree *irtree.Tree, scorer *textrel.Scorer, users []dataset.User, k int) []UserTopK {
	t.Helper()
	tr, err := TraverseWith(tree, scorer, BuildSuperUser(users, scorer), k, &TraverseScratch{})
	if err != nil {
		t.Fatal(err)
	}
	norms := scorer.UserNorms(users)
	out := make([]UserTopK, len(users))
	for ui := range users {
		out[ui] = unprunedTopK(tree.Dataset(), scorer, &users[ui], norms[ui], tr, k)
	}
	return out
}

// sameTopK fails the test unless got and want agree on every user's
// result list and threshold. Scored is work, not answer, and may differ.
func sameTopK(t *testing.T, label string, got, want []UserTopK) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d users, want %d", label, len(got), len(want))
	}
	for ui := range want {
		g, w := got[ui], want[ui]
		if g.RSk != w.RSk {
			t.Fatalf("%s user %d: RSk %v, want %v", label, ui, g.RSk, w.RSk)
		}
		if !slices.Equal(g.Results, w.Results) {
			t.Fatalf("%s user %d: results %+v, want %+v", label, ui, g.Results, w.Results)
		}
	}
}
