package topk

import (
	"math"
	"slices"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/parallel"
	"repro/internal/textrel"
)

// PartitionUsers splits the indexes 0..len(users)-1 into up to `groups`
// spatially coherent groups with a sort-tile pass: users are sorted by X,
// cut into vertical slabs, and each slab is sorted by Y and cut into
// tiles. Tight group MBRs are the point — each group's super-user prunes
// far more of the object index than the loose all-users super-user of
// Section 5.2, so grouping speeds the joint phase up even before any
// concurrency is applied. All ordering ties fall back to the user index,
// keeping the partition deterministic. It is geo.PartitionPoints applied
// to the user locations — the same primitive the shard planner uses, so
// shard boundaries and traversal groups tile space the same way.
func PartitionUsers(users []dataset.User, groups int) [][]int {
	pts := make([]geo.Point, len(users))
	for i := range users {
		pts[i] = users[i].Loc
	}
	return geo.PartitionPoints(pts, groups)
}

// RefineIndex is the precomputed pruning state of one traversal's
// candidate list: running suffix maxima of the two UB components over RO.
// For any user u of the traversal's group and scan position i, every
// candidate at or beyond i scores at most
//
//	α·sufS[i] + (1−α)·sufR[i]/Norm(u)
//
// — a user-specific cutoff far tighter than the group-normalized UB the
// paper's Algorithm 2 breaks on, because it swaps the group's MinNorm for
// the user's own normalizer. It depends only on the TraversalResult, so
// callers refining against one traversal repeatedly build it once and
// share it.
type RefineIndex struct {
	sufS, sufR []float64
}

// NewRefineIndex builds the pruning index over tr's candidates.
func NewRefineIndex(tr *TraversalResult) RefineIndex {
	n := len(tr.RO)
	ri := RefineIndex{sufS: make([]float64, n), sufR: make([]float64, n)}
	maxS, maxR := 0.0, 0.0
	for i := n - 1; i >= 0; i-- {
		if tr.RO[i].SMax > maxS {
			maxS = tr.RO[i].SMax
		}
		if tr.RO[i].RawText > maxR {
			maxR = tr.RO[i].RawText
		}
		ri.sufS[i], ri.sufR[i] = maxS, maxR
	}
	return ri
}

// refineScratch holds the reusable per-user refinement state — the
// bounded top-k heap — so one worker refining many users allocates it
// once. The zero value is ready to use; a scratch must not be shared
// between concurrent refinements.
type refineScratch struct {
	hu *container.StableTopK[irtree.Result]
}

// heap returns the scratch's top-k heap, emptied and re-armed for k.
func (sc *refineScratch) heap(k int) *container.StableTopK[irtree.Result] {
	if sc.hu == nil {
		sc.hu = container.NewStableTopK[irtree.Result](k)
	} else {
		sc.hu.Reset(k)
	}
	return sc.hu
}

// refineUser is Algorithm 2's per-user refinement: user u's exact top-k
// from a traversal's candidates. Ties on the k-th score are broken by
// ascending object ID, making the retained set a function of the
// candidate multiset alone, so grouped and global traversals yield
// identical answers — the engine's equivalence guarantee.
//
// Beyond the paper's descending-UB break, ri enables two provably
// lossless pruning rules: a per-candidate skip (α·SMax +
// (1−α)·RawText/Norm(u) < RSk already proves the exact score cannot
// qualify) and a suffix-maxima early break (no remaining candidate can
// qualify). Both bounds dominate the user's exact STS whenever the user
// belongs to the traversal's group — their location lies in the group MBR
// and their keywords in the group union — so the result equals the
// unpruned scan's.
//
// A positive seed is a lower bound on u's global k-th best score that a
// coordinator merging per-shard lists already holds: the threshold then
// runs at max(heap threshold, seed) throughout. Candidates below it can
// never enter u's merged top-k, while boundary ties survive (the
// qualifying test is s ≥ threshold, and merged retention under the
// StableTopK order depends only on the candidate multiset at or above the
// global k-th score). A seed ≤ 0 is ignored, as every score is ≥ 0. With
// a warm scratch the only allocation is the returned Results slice.
//
//maxbr:hotpath
func refineUser(ds *dataset.Dataset, scorer *textrel.Scorer, u *dataset.User, norm float64, tr *TraversalResult, ri *RefineIndex, k int, seed float64, sc *refineScratch) UserTopK {
	if seed <= 0 {
		seed = -math.MaxFloat64
	}
	hu := sc.heap(k)
	scored := len(tr.LO)
	for _, o := range tr.LO {
		obj := &ds.Objects[o.ObjID]
		s := scorer.STS(obj.Loc, obj.Doc, u.Loc, u.Doc, norm)
		hu.Offer(irtree.Result{ObjID: o.ObjID, Score: s}, s, int64(o.ObjID))
	}
	rsk := max(hu.Threshold(), seed)
	alpha := scorer.Alpha
	for i := range tr.RO {
		o := &tr.RO[i]
		if o.UB < rsk {
			break // the paper's break: RO is descending in group UB
		}
		if alpha*ri.sufS[i]+(1-alpha)*ri.sufR[i]/norm < rsk {
			break // no remaining candidate can reach this user's top-k
		}
		if alpha*o.SMax+(1-alpha)*o.RawText/norm < rsk {
			continue // this candidate provably cannot qualify
		}
		obj := &ds.Objects[o.ObjID]
		scored++
		s := scorer.STS(obj.Loc, obj.Doc, u.Loc, u.Doc, norm)
		if s >= rsk {
			hu.Offer(irtree.Result{ObjID: o.ObjID, Score: s}, s, int64(o.ObjID))
			rsk = max(hu.Threshold(), seed)
		}
	}
	// PopAscending yields worst→best under (score, then object ID);
	// reversing gives descending score with ascending-ID tie-breaks.
	results := hu.PopAscending()
	slices.Reverse(results)
	return UserTopK{Results: results, RSk: rsk, Scored: scored}
}

// IndividualTopKWith implements Algorithm 2 for a user list against one
// traversal and its prebuilt RefineIndex: each user's exact top-k,
// refined sequentially with one reusable scratch. tr must hold LO (any
// order) and RO sorted by descending upper bound, as TraverseWith
// produces them, and every user must belong to the traversal's group.
func IndividualTopKWith(ds *dataset.Dataset, scorer *textrel.Scorer, users []dataset.User, norms []float64, tr *TraversalResult, ri RefineIndex, k int) []UserTopK {
	out := make([]UserTopK, len(users))
	var sc refineScratch
	for ui := range users {
		out[ui] = refineUser(ds, scorer, &users[ui], norms[ui], tr, &ri, k, 0, &sc)
	}
	return out
}

// JointResult bundles everything the joint processing yields.
type JointResult struct {
	PerUser []UserTopK
	// Visited totals the tree nodes expanded across all group traversals
	// (see TraversalResult).
	Visited int
	// Refined totals the candidates scored across all per-user refinements
	// (see UserTopK.Scored).
	Refined int
}

// JointTopK runs the Section 5 pipeline: the user set is partitioned into
// `groups` spatial groups, each group's super-user traversal
// (Algorithm 1) runs on a pool of up to `workers` goroutines, and the
// per-user refinements (Algorithm 2) fan out over the same pool. With
// workers = groups = 1 and nil seeds it is the paper's sequential
// pipeline: one super-user, one traversal, one refinement pass.
//
// seeds, when non-nil, holds per-user lower bounds on each user's global
// k-th best score that a coordinator established from other shards'
// answers. Each group traversal then runs with the minimum of its
// members' seeds as SuperUser.Floor — an object below every member's seed
// can never qualify for any of them — and each refinement with the
// user's own seed. Seeds ≤ 0 are no bound. Seeded per-user lists keep
// every object scoring at or above the seed, which is all a merged global
// top-k consumes.
//
// Per-user results are identical for every workers/groups choice: each
// group traversal yields a candidate superset of its users' top-k objects,
// the pruning rules discard only candidates whose bounds prove they cannot
// qualify, and ties are broken by object ID, so refinement depends only on
// scores.
func JointTopK(tree *irtree.Tree, scorer *textrel.Scorer, users []dataset.User, k, workers, groups int, seeds []float64) (*JointResult, error) {
	parts := PartitionUsers(users, groups)
	norms := scorer.UserNorms(users)
	groupOf := make([]int, len(users))

	travs := make([]*TraversalResult, len(parts))
	ris := make([]RefineIndex, len(parts))
	errs := make([]error, len(parts))
	travScratch := make([]TraverseScratch, parallel.Workers(len(parts), workers))
	parallel.ForNWorkers(len(parts), workers, func(w, g int) {
		gu := make([]dataset.User, len(parts[g]))
		floor := math.MaxFloat64
		for i, ui := range parts[g] {
			gu[i] = users[ui]
			groupOf[ui] = g
			floor = min(floor, seedOf(seeds, ui))
		}
		su := BuildSuperUser(gu, scorer)
		su.Floor = floor
		travs[g], errs[g] = TraverseWith(tree, scorer, su, k, &travScratch[w])
		if errs[g] == nil {
			ris[g] = NewRefineIndex(travs[g])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &JointResult{PerUser: make([]UserTopK, len(users))}
	ds := tree.Dataset()
	refScratch := make([]refineScratch, parallel.Workers(len(users), workers))
	parallel.ForNWorkers(len(users), workers, func(w, ui int) {
		g := groupOf[ui]
		res.PerUser[ui] = refineUser(ds, scorer, &users[ui], norms[ui], travs[g], &ris[g], k, seedOf(seeds, ui), &refScratch[w])
	})
	for _, tr := range travs {
		res.Visited += tr.Visited
	}
	for i := range res.PerUser {
		res.Refined += res.PerUser[i].Scored
	}
	return res, nil
}

// seedOf returns user ui's seed, 0 (no bound) when no seeds were given.
func seedOf(seeds []float64, ui int) float64 {
	if seeds == nil {
		return 0
	}
	return seeds[ui]
}
