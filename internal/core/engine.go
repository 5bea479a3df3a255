package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/irtree"
	"repro/internal/textrel"
	"repro/internal/topk"
	"repro/internal/vocab"
)

// Engine answers MaxBRSTkNN queries over one object index and one user set.
// The expensive first phase — computing every user's RSk(u), the score of
// their k-th ranked object — is separated from candidate selection so the
// experiments can measure the two components independently, as the paper's
// evaluation does.
type Engine struct {
	Tree   *irtree.Tree
	Scorer *textrel.Scorer
	Users  []dataset.User

	norms []float64
	su    topk.SuperUser

	// phase-1 state
	preparedK int
	rsk       []float64 // per user
	rskSuper  float64
}

// NewEngine creates an engine. The tree must index the dataset the scorer
// was built over.
func NewEngine(tree *irtree.Tree, scorer *textrel.Scorer, users []dataset.User) *Engine {
	e := &Engine{Tree: tree, Scorer: scorer, Users: users}
	e.norms = scorer.UserNorms(users)
	e.su = topk.BuildSuperUser(users, scorer)
	return e
}

// PrepareJoint runs the joint top-k processing of Section 5 (Algorithms 1
// and 2) to obtain RSk(u) for every user with shared I/O. Phase 1
// partitions the users into opts.Groups spatial groups and runs the group
// traversals and per-user refinements on up to opts.Workers goroutines;
// the zero value is the paper's sequential pipeline, and the prepared
// thresholds are identical for every choice.
func (e *Engine) PrepareJoint(k int, opts ParallelOptions) error {
	opts = opts.Normalize()
	res, err := topk.JointTopK(e.Tree, e.Scorer, e.Users, k, opts.Workers, opts.Groups, nil)
	if err != nil {
		return err
	}
	rsk := make([]float64, len(e.Users))
	for i, p := range res.PerUser {
		rsk[i] = p.RSk
	}
	e.SetPrepared(k, rsk, minThreshold(rsk))
	return nil
}

// RSk returns the prepared per-user thresholds (for tests and §7 reuse).
func (e *Engine) RSk() []float64 { return e.rsk }

// SetPrepared installs externally computed thresholds: a coordinator's
// merged global thresholds, or a test's per-user IR-tree searches.
func (e *Engine) SetPrepared(k int, rsk []float64, rskSuper float64) {
	e.preparedK, e.rsk, e.rskSuper = k, rsk, rskSuper
}

func (e *Engine) ensurePrepared(q Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if e.rsk == nil || e.preparedK != q.K {
		return fmt.Errorf("core: engine not prepared for k=%d (call PrepareJoint or SetPrepared)", q.K)
	}
	return nil
}

// sts evaluates the exact STS of ox placed at location index li with added
// keywords add, against user ui.
func (e *Engine) sts(q Query, li int, doc vocab.Doc, ui int) float64 {
	u := &e.Users[ui]
	return e.Scorer.STS(q.Locations[li], doc, u.Loc, u.Doc, e.norms[ui])
}

// isBRSTkNN reports whether user ui would have ox (at location li, with
// document doc) among their top-k: STS ≥ RSk(u), matching the paper's ≥
// comparisons (an object tying the k-th score counts).
func (e *Engine) isBRSTkNN(q Query, li int, doc vocab.Doc, ui int) bool {
	return e.sts(q, li, doc, ui) >= e.rsk[ui]
}

// countBRSTkNN counts (and collects) the BRSTkNN users among candidates
// for the tuple 〈location li, ox.d ∪ add〉.
func (e *Engine) countBRSTkNN(q Query, li int, add []vocab.TermID, candidates []int) []int32 {
	doc := q.OxDoc.MergeTerms(add)
	var users []int32
	for _, ui := range candidates {
		if e.isBRSTkNN(q, li, doc, ui) {
			users = append(users, e.Users[ui].ID)
		}
	}
	return users
}

// allUserIndexes returns 0..|U|-1.
func (e *Engine) allUserIndexes() []int {
	out := make([]int, len(e.Users))
	for i := range out {
		out[i] = i
	}
	return out
}
