package core

import (
	"slices"

	"repro/internal/textrel"
	"repro/internal/vocab"
)

// ParallelOptions configures the parallel query engine. The zero value is
// the sequential paper pipeline; both phases treat Workers=1 as the
// sequential special case, so results are byte-identical across every
// Workers/Groups choice (ties are broken by object ID and candidate
// order throughout).
type ParallelOptions struct {
	// Workers bounds the goroutines used by each phase. Values <= 1 run
	// sequentially on the calling goroutine.
	Workers int
	// Groups is the number of spatial super-user groups the joint top-k
	// phase partitions the users into. Tighter groups prune more of the
	// object index, so Groups can usefully exceed Workers even on one
	// core. Values <= 0 default to Workers.
	Groups int
}

// Normalize resolves defaulted fields.
func (o ParallelOptions) Normalize() ParallelOptions {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Groups <= 0 {
		o.Groups = o.Workers
	}
	return o
}

// minThreshold returns the canonical group threshold: the minimum per-user
// RSk. It is sound wherever RSk(us) is used (every user's k-th score is at
// least the super-user's) and — unlike the traversal-derived RSk(us) — it
// does not depend on how users were grouped, so sequential and parallel
// preparations agree on every downstream pruning decision.
func minThreshold(rsk []float64) float64 {
	if len(rsk) == 0 {
		return 0
	}
	min := rsk[0]
	for _, v := range rsk[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// keywordSet is the candidate keyword set W in the two forms phase 2
// reads: a membership set for the bounds and the ascending distinct terms
// that index per-location keyword marks.
type keywordSet struct {
	set   textrel.CandidateSet
	terms []vocab.TermID
}

// newKeywordSet builds q's candidate keyword set once per query.
func newKeywordSet(q Query) keywordSet {
	terms := slices.Clone(q.Keywords)
	slices.Sort(terms)
	return keywordSet{set: textrel.NewCandidateSet(q.Keywords), terms: slices.Compact(terms)}
}
