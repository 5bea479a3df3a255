package topk

import (
	"testing"

	"repro/internal/irtree"
	"repro/internal/textrel"
)

// TestRefineUserAllocations pins the per-user cost of the joint
// refinement: with a warm per-worker scratch, refining one user must
// allocate only the returned Results slice itself (one allocation — it is
// handed to the caller, so it cannot be pooled). A regression here
// re-introduces per-user heap allocations.
func TestRefineUserAllocations(t *testing.T) {
	tree, scorer, us := setup(t, textrel.LM, 400, 30)
	su := BuildSuperUser(us.Users, scorer)
	tr, err := TraverseWith(tree, scorer, su, 5, &TraverseScratch{})
	if err != nil {
		t.Fatal(err)
	}
	ri := NewRefineIndex(tr)
	norms := scorer.UserNorms(us.Users)
	ds := tree.Dataset()

	sc := &refineScratch{}
	refineUser(ds, scorer, &us.Users[0], norms[0], tr, &ri, 5, 0, sc)
	allocs := testing.AllocsPerRun(100, func() {
		for ui := range us.Users {
			refineUser(ds, scorer, &us.Users[ui], norms[ui], tr, &ri, 5, 0, sc)
		}
	})
	perUser := allocs / float64(len(us.Users))
	if perUser > 1 {
		t.Fatalf("refinement allocates %.2f times per user, want <= 1 (the Results slice)", perUser)
	}
}

// TestTraverseWithAllocations pins the per-traversal cost of Algorithm 1
// in the warm serving configuration (decoded cache + reused scratch):
// node and posting decodes are cache hits and the queues and per-node sum
// buffers are reused, so the only allocations left are the returned
// result's own slices — a small constant independent of the number of
// nodes visited.
func TestTraverseWithAllocations(t *testing.T) {
	cold, scorer, us := setup(t, textrel.LM, 400, 30)
	tree := irtree.Build(cold.Dataset(), scorer.Model,
		irtree.Config{Kind: irtree.MIRTree, Fanout: 16, DecodedCacheBytes: 8 << 20})
	su := BuildSuperUser(us.Users, scorer)
	sc := &TraverseScratch{}
	if _, err := TraverseWith(tree, scorer, su, 5, sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := TraverseWith(tree, scorer, su, 5, sc); err != nil {
			t.Fatal(err)
		}
	})
	// result struct + LO slice + RO appends: a handful of allocations per
	// traversal, regardless of nodes visited (hundreds at this scale).
	if allocs > 16 {
		t.Fatalf("traversal allocates %.1f times, want a small constant (<= 16)", allocs)
	}
}
