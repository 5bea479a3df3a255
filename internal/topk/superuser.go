// Package topk implements the paper's joint top-k processing (Section 5):
// the super-user grouping (5.2), the upper/lower bound estimations of
// Lemma 2 (5.3), the shared MIR-tree traversal of Algorithm 1, and the
// individual per-user refinement of Algorithm 2. It also provides the
// per-user baseline loop the experiments compare against.
package topk

import (
	"slices"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// SuperUser aggregates a group of users (Section 5.2): the MBR of their
// locations, the union and intersection of their keywords, and the group's
// extreme normalizers, which keep Lemma 2 sound under per-user
// normalization (README, "Design notes").
type SuperUser struct {
	MBR      geo.Rect
	Uni      []vocab.TermID // union of user keywords, ascending
	Int      []vocab.TermID // intersection of user keywords, ascending
	MinNorm  float64        // min over users of Norm(u)
	MaxNorm  float64        // max over users of Norm(u)
	NumUsers int
	// Floor is a known lower bound on every member's RSk — the k-th best
	// score a coordinator already established from other shards. The
	// traversal prunes against max(RSk(us), Floor). A Floor ≤ 0 means no
	// floor: the textrel.Model contract gives Weight ≥ 0, so every STS is
	// ≥ 0 and such a floor could never prune anything.
	Floor float64
}

// BuildSuperUser constructs the super-user of a user group, computing each
// user's normalizer with the scorer's model.
func BuildSuperUser(users []dataset.User, scorer *textrel.Scorer) SuperUser {
	su := SuperUser{MBR: dataset.UsersMBR(users), NumUsers: len(users)}
	if len(users) == 0 {
		su.MinNorm, su.MaxNorm = 1, 1
		return su
	}
	uniSet := make(map[vocab.TermID]int)
	for _, u := range users {
		for _, t := range u.Doc.Terms() {
			uniSet[t]++
		}
	}
	for t, cnt := range uniSet {
		su.Uni = append(su.Uni, t)
		if cnt == len(users) {
			su.Int = append(su.Int, t)
		}
	}
	slices.Sort(su.Uni)
	slices.Sort(su.Int)
	norms := scorer.UserNorms(users)
	su.MinNorm, su.MaxNorm = textrel.GroupNorms(norms)
	return su
}

// UBText converts an entry's maximum text sum over the union terms into
// the textual component of MaxSTS(E, us).
func (su SuperUser) UBText(maxSum float64) float64 { return maxSum / su.MinNorm }

// LBText converts an entry's minimum text sum over the intersection terms
// into the textual component of LB(E, us).
func (su SuperUser) LBText(minSum float64) float64 { return minSum / su.MaxNorm }
