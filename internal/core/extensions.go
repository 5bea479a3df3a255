package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/container"
)

// SelectTopL returns up to l selections — the l best candidate locations,
// each with its best keyword set — ranked by |BRSTkNN| descending. This is
// the spatial-textual analogue of the ℓ-MaxBRkNN extension the MAXOVERLAP
// line of work supports: a franchise scouting several sites at once wants
// the ranked shortlist, not just the winner.
//
// The same |LU_ℓ| upper bound drives early termination: once l locations
// are resolved and the next location's qualifying list is smaller than the
// current l-th best count, no remaining location can enter the shortlist.
func (e *Engine) SelectTopL(q Query, method KeywordMethod, l int) ([]Selection, error) {
	if err := e.ensurePrepared(q); err != nil {
		return nil, err
	}
	if l <= 0 {
		return nil, fmt.Errorf("core: l must be positive")
	}
	w := newKeywordSet(q)
	lcs := e.locationCandidates(q, w, true)

	best := container.NewTopK[Selection](l)
	for _, lc := range lcs {
		if best.Full() && float64(len(lc.users)) < best.Threshold() {
			break
		}
		var sel Selection
		if method == KeywordsApprox {
			sel = e.selectKeywordsGreedy(q, lc, w)
		} else {
			sel = e.selectKeywordsExact(q, lc, w, 1)
		}
		if sel.Count() > 0 {
			best.Offer(sel, float64(sel.Count()))
		}
	}
	out := best.PopAscending()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count() != out[j].Count() {
			return out[i].Count() > out[j].Count()
		}
		return out[i].LocIndex < out[j].LocIndex
	})
	for i := range out {
		out[i].normalize()
	}
	return out, nil
}

// SelectMultiple greedily places m objects (each with its own location and
// keyword set) to maximize the number of *distinct* users covered — the
// multi-service extension the FILM line of work motivates (Section 2.1).
// Placements do not compete with each other: each round re-runs the
// single-placement search with already-covered users excluded, so the
// result inherits the greedy (1−1/e) coverage guarantee with respect to
// the per-round selections.
func (e *Engine) SelectMultiple(q Query, method KeywordMethod, m int) ([]Selection, error) {
	if err := e.ensurePrepared(q); err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("core: m must be positive")
	}
	// Covered users are excluded by poisoning their threshold: an infinite
	// RSk(u) fails every upper-bound test and every exact comparison, so
	// the whole pruning stack skips them for free. Restore on exit.
	saved := append([]float64(nil), e.rsk...)
	defer func() { e.rsk = saved }()

	byID := make(map[int32]int, len(e.Users))
	for i := range e.Users {
		byID[e.Users[i].ID] = i
	}

	var out []Selection
	for round := 0; round < m; round++ {
		sel, err := e.Select(q, method)
		if err != nil {
			return nil, err
		}
		if sel.Count() == 0 {
			break // nobody left to win
		}
		out = append(out, sel)
		for _, uid := range sel.Users {
			e.rsk[byID[uid]] = math.Inf(1)
		}
	}
	return out, nil
}
