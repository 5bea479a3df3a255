package textrel

import (
	"sort"

	"repro/internal/vocab"
)

// CandidateSet is the candidate keyword set W with O(1) membership tests.
type CandidateSet map[vocab.TermID]bool

// NewCandidateSet builds a CandidateSet from a list of keywords.
func NewCandidateSet(terms []vocab.TermID) CandidateSet {
	s := make(CandidateSet, len(terms))
	for _, t := range terms {
		s[t] = true
	}
	return s
}

// TSAddUpperBound returns an upper bound on TS(ox.d ∪ c, ud) over every
// keyword set c ⊆ W with |c| ≤ ws — the Lemma 3 quantity, in the additive
// form that stays sound for the Language Model (README, "Design notes"):
//
//	[ Σ_{t∈ud} Weight(ox.d,t) + Σ_{top-ws gains t ∈ ud∩W} AddWeight(ox.d,t) ] / norm
//
// Proof sketch. For any admissible c, Weight(ox.d∪c, t) ≤ Weight(ox.d,t) +
// [t∈c]·AddWeight(ox.d,t) for all three models: for TF-IDF and KO weights
// are independent across terms and the gain is exactly AddWeight; for LM,
// adding s ≥ 1 terms yields (1−λ)(f+1)/(L+s) ≤ (1−λ)f/L + (1−λ)/(L+1),
// and terms not in c can only lose weight. Only terms in ud∩W contribute
// gains, and at most ws of them, so the largest ws gains dominate.
func (s *Scorer) TSAddUpperBound(oxDoc, ud vocab.Doc, norm float64, w CandidateSet, ws int) float64 {
	var gs GainScratch
	return s.TSAddUpperBoundInto(oxDoc, ud, norm, w, ws, &gs)
}

// GainScratch is the reusable gains buffer of TSAddUpperBoundInto. The
// zero value is ready to use; a scratch must not be shared between
// concurrent calls.
type GainScratch struct {
	gains []float64
}

// TSAddUpperBoundInto is TSAddUpperBound with caller-supplied scratch:
// allocation-free once the scratch has grown to the widest user. The
// gains are summed in term order when at most ws exist, and otherwise
// the ws largest in descending order — a partial selection that yields
// exactly the prefix a full descending sort would, so the bound is
// bit-identical to sorting.
//
//maxbr:hotpath
func (s *Scorer) TSAddUpperBoundInto(oxDoc, ud vocab.Doc, norm float64, w CandidateSet, ws int, gs *GainScratch) float64 {
	base := 0.0
	gains := gs.gains[:0]
	for _, t := range ud.Terms() {
		base += s.Model.Weight(oxDoc, t)
		if w[t] {
			if g := s.Model.AddWeight(oxDoc, t); g > 0 {
				//maxbr:ignore hotpathalloc scratch growth, amortized: gains is retained in gs and grows only for a user with more gains than any before
				gains = append(gains, g)
			}
		}
	}
	gs.gains = gains
	if ws < len(gains) {
		for i := 0; i < ws; i++ {
			top := i
			for j := i + 1; j < len(gains); j++ {
				if gains[j] > gains[top] {
					top = j
				}
			}
			gains[i], gains[top] = gains[top], gains[i]
		}
		gains = gains[:ws]
	}
	for _, g := range gains {
		base += g
	}
	return base / norm
}

// STSAddUpperBound combines TSAddUpperBound with an exact spatial proximity
// for a fixed candidate location — the UBL(ℓ,u) bound of Section 6.1.
func (s *Scorer) STSAddUpperBound(ss float64, oxDoc, ud vocab.Doc, norm float64, w CandidateSet, ws int) float64 {
	return s.Combine(ss, s.TSAddUpperBound(oxDoc, ud, norm, w, ws))
}

// TopWeightedCandidates returns up to ws candidate keywords from the
// intersection of ud's terms with W, ranked by the gain they can add to
// oxDoc — the HW_{w,u} construction of Section 6.2.1. If include is a valid
// term it is forced into the result (taking one slot).
func (s *Scorer) TopWeightedCandidates(oxDoc, ud vocab.Doc, w CandidateSet, ws int, include vocab.TermID, forceInclude bool) []vocab.TermID {
	type tg struct {
		t vocab.TermID
		g float64
	}
	var cands []tg
	for _, t := range ud.Terms() {
		if w[t] && (!forceInclude || t != include) {
			cands = append(cands, tg{t, s.Model.AddWeight(oxDoc, t)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].g != cands[j].g {
			return cands[i].g > cands[j].g
		}
		return cands[i].t < cands[j].t // deterministic tie-break
	})
	out := make([]vocab.TermID, 0, ws)
	if forceInclude {
		out = append(out, include)
	}
	for _, c := range cands {
		if len(out) >= ws {
			break
		}
		out = append(out, c.t)
	}
	return out
}
