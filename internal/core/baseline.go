package core

import (
	"repro/internal/container"
	"repro/internal/vocab"
)

// Baseline answers the query with the exhaustive method of Section 4:
// every candidate location is paired with every combination of exactly ws
// candidate keywords, and the relevance of each tuple is evaluated against
// every user whose keywords intersect the tuple's document. The engine
// must be prepared (either way) for q.K first.
//
// The combinatorial cost — |L| · C(|W|, ws) tuples — is the scalability
// wall the paper's Figure 11 exposes.
func (e *Engine) Baseline(q Query) (Selection, error) {
	if err := e.ensurePrepared(q); err != nil {
		return Selection{}, err
	}
	lis := make([]int, len(q.Locations))
	for li := range lis {
		lis[li] = li
	}
	// Folding each location's first-max in location order is the flat
	// location × combination scan's first-max.
	return firstMax(e.evalExhaustive(q, lis, 1)), nil
}

// evalExhaustive runs the location loop over the locations lis with the
// exhaustive per-location body, against every user and skipping nothing.
func (e *Engine) evalExhaustive(q Query, lis []int, workers int) []ScatterCandidate {
	all := e.allUserIndexes()
	lcs := make([]locCandidate, len(lis))
	for i, li := range lis {
		lcs[i] = locCandidate{li: li, users: all}
	}
	return e.evalLocations(lcs, workers, 0, false, func(lc locCandidate, _ int) Selection {
		return e.exhaustiveLocationBest(q, lc.li, lc.users)
	})
}

// exhaustiveLocationBest is Baseline's inner loop for one location: the
// first combination (in enumeration order) achieving the location's
// maximum verified user count.
func (e *Engine) exhaustiveLocationBest(q Query, li int, users []int) Selection {
	best := Selection{LocIndex: -1}
	container.Combinations(q.Keywords, q.WS, func(combo []vocab.TermID) bool {
		add := append([]vocab.TermID(nil), combo...)
		if ids := e.countBRSTkNN(q, li, add, users); len(ids) > best.Count() {
			best = Selection{
				LocIndex: li,
				Location: q.Locations[li],
				Keywords: add,
				Users:    ids,
			}
		}
		return true
	})
	return best
}
