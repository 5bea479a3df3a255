package core

import (
	"sort"

	"repro/internal/geo"
	"repro/internal/parallel"
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
// Algorithm 3 orders candidate locations by |LU_ℓ| (best-first), skips
// every location that cannot beat the incumbent, and delegates keyword
// selection to the exact (Algorithm 4) or greedy (Section 6.2.1) method.
// The engine must be prepared for q.K first.
//
// Candidate locations fan out over up to opts.Workers goroutines, and
// within a location the exact keyword-combination scan is chunked across
// any workers the location fan-out leaves idle. A shared monotone
// incumbent count replaces Algorithm 3's sequential early termination: a
// location whose |LU_ℓ| is below the incumbent can never win and is
// skipped, the same locations the sequential break discards. Workers ≤ 1
// is the sequential paper algorithm, and the result is byte-identical for
// every worker count.
func (e *Engine) Select(q Query, method KeywordMethod, opts ParallelOptions) (Selection, error) {
	return e.selectBest(q, method, opts.Normalize().Workers, true)
}

// SelectNoBestFirst is the ablation variant of Select that processes
// candidate locations in their given order without the |LU_ℓ| best-first
// ordering — isolating the value of Algorithm 3's priority queue (README,
// "Design notes"). Dominated locations are still skipped, but the scan
// cannot stop early.
func (e *Engine) SelectNoBestFirst(q Query, method KeywordMethod) (Selection, error) {
	return e.selectBest(q, method, 1, false)
}

func (e *Engine) selectBest(q Query, method KeywordMethod, workers int, bestFirst bool) (Selection, error) {
	if err := e.ensurePrepared(q); err != nil {
		return Selection{}, err
	}
	w := newKeywordSet(q)
	lcs := e.locationCandidates(q, w, bestFirst)
	cands := e.evalLocations(lcs, workers, 0, true, func(lc locCandidate, comboWorkers int) Selection {
		return e.evalLocation(q, method, w, lc, comboWorkers)
	})
	return firstMax(cands), nil
}

// evalLocations is the location loop every selection driver shares. It
// evaluates the candidates in order on up to workers goroutines and
// returns the evaluated ones, in the same order, each with its |LU_ℓ|.
// With prune, a candidate is skipped when |LU_ℓ| < max(floor, incumbent),
// the incumbent being the best count any candidate has reached so far:
// |LU_ℓ| bounds the location's count from above, so a skipped candidate
// can neither win nor tie ahead of a first maximum. comboWorkers, handed
// to eval, is the share of workers the location fan-out leaves idle for
// the exact keyword scan.
func (e *Engine) evalLocations(lcs []locCandidate, workers, floor int, prune bool, eval func(lc locCandidate, comboWorkers int) Selection) []ScatterCandidate {
	comboWorkers := 1
	if len(lcs) > 0 {
		comboWorkers = max(1, workers/len(lcs))
	}
	sels := make([]Selection, len(lcs))
	done := make([]bool, len(lcs))
	var incumbent parallel.MaxCounter
	incumbent.Raise(floor)
	parallel.ForN(len(lcs), workers, func(i int) {
		if prune && len(lcs[i].users) < incumbent.Get() {
			return
		}
		sels[i] = eval(lcs[i], comboWorkers)
		done[i] = true
		incumbent.Raise(sels[i].Count())
	})
	out := make([]ScatterCandidate, 0, len(lcs))
	for i, lc := range lcs {
		if done[i] {
			out = append(out, ScatterCandidate{Sel: sels[i], LU: len(lc.users)})
		}
	}
	return out
}

// firstMax folds evaluated candidates, in evaluation order, into the
// first selection reaching the largest count, normalized.
func firstMax(cands []ScatterCandidate) Selection {
	best := Selection{LocIndex: -1}
	for _, c := range cands {
		if c.Sel.Count() > best.Count() {
			best = c.Sel
		}
	}
	best.normalize()
	return best
}

// evalLocation computes one candidate location's best selection, the
// per-location body of Select. comboWorkers bounds the goroutines the
// exact keyword scan may use (1 = sequential).
func (e *Engine) evalLocation(q Query, method KeywordMethod, w keywordSet, lc locCandidate, comboWorkers int) Selection {
	// Group-level lower-bound shortcut (lines 3.11–3.13): when even the
	// intersection text of the bare ox.d clears the group threshold, no
	// keyword is needed. We confirm per user with the exact zero-keyword
	// STS (README, "Design notes", explains why the paper's unverified
	// version can overcount). The shortcut is conclusive only when the
	// verified count saturates LU_ℓ; otherwise keywords may still win
	// users, and the keyword selectors' zero-keyword floor subsumes this
	// count.
	lbSuper := e.Scorer.Alpha*e.Scorer.SSMin(geo.RectFromPoint(q.Locations[lc.li]), e.su.MBR) +
		(1-e.Scorer.Alpha)*e.su.LBText(minTextOver(e.Scorer, q.OxDoc, e.su.Int))
	if lbSuper >= e.rskSuper {
		users := e.countBRSTkNN(q, lc.li, nil, lc.users)
		if len(users) == len(lc.users) {
			return Selection{LocIndex: lc.li, Location: q.Locations[lc.li], Users: users}
		}
	}
	return e.selectKeywords(q, method, lc, w, comboWorkers)
}

// selectKeywords runs the keyword-selection method of Section 6.2 for
// one candidate location: the greedy approximation or the exact scan of
// Algorithm 4 (on up to comboWorkers goroutines).
func (e *Engine) selectKeywords(q Query, method KeywordMethod, lc locCandidate, w keywordSet, comboWorkers int) Selection {
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
