package core

import (
	"sort"

	"repro/internal/geo"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// locCandidate is one candidate location with its qualifying-user list
// LU_ℓ (Algorithm 3): the users whose per-user upper bound admits them as
// potential BRSTkNN when ox is placed at the location.
type locCandidate struct {
	li    int
	users []int // indexes into e.Users
}

// Select answers the query with the pruned search of Section 6:
// Algorithm 3 orders candidate locations by |LU_ℓ| (best-first), terminates
// early when no remaining location can beat the incumbent, and delegates
// keyword selection to the exact (Algorithm 4) or greedy (Section 6.2.1)
// method. The engine must be prepared for q.K first. Select is the
// sequential special case of SelectParallel.
func (e *Engine) Select(q Query, method KeywordMethod) (Selection, error) {
	return e.selectOrdered(q, method, true)
}

// SelectNoBestFirst is the ablation variant of Select that processes
// candidate locations in their given order without the |LU_ℓ| best-first
// ordering or its early termination — isolating the value of Algorithm 3's
// priority queue (DESIGN.md §6).
func (e *Engine) SelectNoBestFirst(q Query, method KeywordMethod) (Selection, error) {
	return e.selectOrdered(q, method, false)
}

func (e *Engine) selectOrdered(q Query, method KeywordMethod, bestFirst bool) (Selection, error) {
	if err := e.ensurePrepared(q); err != nil {
		return Selection{}, err
	}
	w := newKeywordSet(q)
	lcs := e.locationCandidates(q, w, bestFirst)

	best := Selection{LocIndex: -1}
	for _, lc := range lcs {
		// |LU_ℓ| bounds the achievable count from above; in best-first
		// order no later location can recover either.
		if len(lc.users) < best.Count() {
			if bestFirst {
				break
			}
			continue
		}
		if sel := e.evalLocation(q, method, w, lc, 1); sel.Count() > best.Count() {
			best = sel
		}
	}
	best.normalize()
	return best, nil
}

// evalLocation computes one candidate location's best selection — the
// per-location body shared by the sequential and parallel searches, so
// both agree byte-for-byte. comboWorkers bounds the goroutines the exact
// keyword scan may use (1 = sequential).
func (e *Engine) evalLocation(q Query, method KeywordMethod, w keywordSet, lc locCandidate, comboWorkers int) Selection {
	// Group-level lower-bound shortcut (lines 3.11–3.13): when even the
	// intersection text of the bare ox.d clears the group threshold, no
	// keyword is needed. We confirm per user with the exact zero-keyword
	// STS (DESIGN.md §4 explains why the paper's unverified version can
	// overcount). The shortcut is conclusive only when the verified count
	// saturates LU_ℓ; otherwise keywords may still win users, and the
	// keyword selectors' zero-keyword floor subsumes this count.
	lbSuper := e.Scorer.Alpha*e.Scorer.SSMin(geo.RectFromPoint(q.Locations[lc.li]), e.su.MBR) +
		(1-e.Scorer.Alpha)*e.su.LBText(e.intTextSum(q))
	if lbSuper >= e.rskSuper {
		users := e.countBRSTkNN(q, lc.li, nil, lc.users)
		if len(users) == len(lc.users) {
			return Selection{LocIndex: lc.li, Location: q.Locations[lc.li], Users: users}
		}
	}
	if method == KeywordsApprox {
		return e.selectKeywordsGreedy(q, lc, w)
	}
	return e.selectKeywordsExact(q, lc, w, comboWorkers)
}

// locationCandidates builds the candidate locations with their qualifying
// user lists (the first half of Algorithm 3), shared by every selection
// variant. With sortBest the list is in the canonical best-first order —
// |LU_ℓ| descending, location index ascending on ties — which fixes the
// tie-breaking the sequential and parallel searches must agree on;
// otherwise it stays in location order (the no-best-first ablation).
func (e *Engine) locationCandidates(q Query, w keywordSet, sortBest bool) []locCandidate {
	// The textual half of UBL(ℓ,u) does not depend on the location: bound
	// it once per user (and for the super-user), then combine it with
	// each location's exact spatial proximity.
	var gs textrel.GainScratch
	tsSuper := e.Scorer.TSAddUpperBoundInto(q.OxDoc, vocab.DocFromTerms(e.su.Uni), e.su.MinNorm, w.set, q.WS, &gs)
	tsUB := make([]float64, len(e.Users))
	for ui := range e.Users {
		tsUB[ui] = e.Scorer.TSAddUpperBoundInto(q.OxDoc, e.Users[ui].Doc, e.norms[ui], w.set, q.WS, &gs)
	}

	var lcs []locCandidate
	for li := range q.Locations {
		ssUB := e.Scorer.SSMax(geo.RectFromPoint(q.Locations[li]), e.su.MBR)
		if e.Scorer.Combine(ssUB, tsSuper) < e.rskSuper {
			continue
		}
		lc := locCandidate{li: li}
		for ui := range e.Users {
			ubl := e.Scorer.Combine(e.Scorer.SS(q.Locations[li], e.Users[ui].Loc), tsUB[ui])
			if ubl >= e.rsk[ui] {
				lc.users = append(lc.users, ui)
			}
		}
		if len(lc.users) > 0 {
			lcs = append(lcs, lc)
		}
	}
	if sortBest {
		sort.Slice(lcs, func(i, j int) bool {
			if len(lcs[i].users) != len(lcs[j].users) {
				return len(lcs[i].users) > len(lcs[j].users)
			}
			return lcs[i].li < lcs[j].li
		})
	}
	return lcs
}

// intTextSum returns Σ_{t ∈ us.Int} Weight(ox.d, t): the unnormalized
// textual lower bound of LBL(ℓ, us) using ox's existing description.
func (e *Engine) intTextSum(q Query) float64 {
	total := 0.0
	for _, t := range e.su.Int {
		total += e.Scorer.Model.Weight(q.OxDoc, t)
	}
	return total
}
