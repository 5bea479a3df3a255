package core

import (
	"math"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/miurtree"
	"repro/internal/textrel"
	"repro/internal/topk"
	"repro/internal/vocab"
)

// UserIndexStats reports the pruning the MIUR-tree achieved: users whose
// exact top-k was never computed are "pruned" (the Figure 15 metric).
type UserIndexStats struct {
	TotalUsers    int
	ResolvedUsers int
}

// PrunedPercent returns the percentage of users whose top-k computation
// was avoided.
func (s UserIndexStats) PrunedPercent() float64 {
	if s.TotalUsers == 0 {
		return 0
	}
	return 100 * float64(s.TotalUsers-s.ResolvedUsers) / float64(s.TotalUsers)
}

// luElement is one member of a location's qualifying list LU_ℓ in the
// Section 7 algorithm: either a resolved user or a MIUR-tree node entry
// standing for all users beneath it.
type luElement struct {
	isUser bool
	ui     int                // user index when isUser
	entry  miurtree.NodeEntry // subtree aggregate when !isUser
	rsk    float64            // RSk(u) exactly, or a lower bound for nodes

	expanded bool
	children []*luElement
}

func (el *luElement) count() int32 {
	if el.isUser {
		return 1
	}
	return el.entry.Count
}

// SelectUserIndexed answers the query with the Section 7 method: users
// stay on disk in the MIUR-tree, the object index is traversed once for
// the root super-user, and per-user top-k computations are performed only
// for users that survive the hierarchical location pruning. The engine's
// prepared thresholds are (re)computed internally; ut must index the
// engine's user slice in order.
func (e *Engine) SelectUserIndexed(q Query, method KeywordMethod, ut *miurtree.Tree) (Selection, UserIndexStats, error) {
	stats := UserIndexStats{TotalUsers: len(e.Users)}
	if err := q.Validate(); err != nil {
		return Selection{}, stats, err
	}
	best := Selection{LocIndex: -1}
	if len(e.Users) == 0 || ut.RootID() < 0 {
		return best, stats, nil
	}

	// Phase 1: one shared traversal of the object index using the MIUR-tree
	// root as the super-user (Section 7: "the root is essentially the same
	// as the super-user").
	root := ut.RootEntry
	su := topk.SuperUser{
		MBR: root.Rect, Uni: root.Uni, Int: root.Int,
		MinNorm: root.MinNorm, MaxNorm: root.MaxNorm, NumUsers: int(root.Count),
	}
	tr, err := topk.TraverseWith(e.Tree, e.Scorer, su, q.K, &topk.TraverseScratch{})
	if err != nil {
		return Selection{}, stats, err
	}
	// One pruning index for the shared traversal: every leaf expansion
	// refines against the same candidate list.
	ri := topk.NewRefineIndex(tr)

	// Install engine state so the keyword selectors can score users.
	e.preparedK = q.K
	e.rskSuper = tr.RSkSuper
	e.rsk = make([]float64, len(e.Users))
	for i := range e.rsk {
		e.rsk[i] = math.Inf(1) // unresolved: poisoned so misuse prunes
	}

	w := newKeywordSet(q)
	cands := tr.Candidates()

	// Initial elements: the root node's entries.
	rootNode, err := ut.ReadNode(ut.RootID())
	if err != nil {
		return Selection{}, stats, err
	}
	initial, err := e.elementsOf(rootNode, tr, ri, cands, q, &stats)
	if err != nil {
		return Selection{}, stats, err
	}

	// Per-location lists, pruned by UBL against each element's threshold.
	type locList struct {
		li    int
		elems []*luElement
		count int32
	}
	ql := container.NewMaxHeap[*locList]()
	for li := range q.Locations {
		ll := &locList{li: li}
		for _, el := range initial {
			if e.ublElement(q, li, el, w) >= el.rsk {
				ll.elems = append(ll.elems, el)
				ll.count += el.count()
			}
		}
		if ll.count > 0 {
			ql.Push(ll, float64(ll.count))
		}
	}

	for ql.Len() > 0 {
		ll, key := ql.Pop()
		// Lazy refresh: replace expanded elements by their qualifying
		// children for this location.
		refreshed := false
		for {
			changed := false
			var next []*luElement
			var count int32
			for _, el := range ll.elems {
				if !el.expanded {
					next = append(next, el)
					count += el.count()
					continue
				}
				changed = true
				for _, ch := range el.children {
					if e.ublElement(q, ll.li, ch, w) >= ch.rsk {
						next = append(next, ch)
						count += ch.count()
					}
				}
			}
			ll.elems, ll.count = next, count
			if !changed {
				break
			}
			refreshed = true
		}
		if refreshed && float64(ll.count) != key {
			if ll.count > 0 {
				ql.Push(ll, float64(ll.count))
			}
			continue // re-evaluate position in the queue
		}
		if int(ll.count) < best.Count() || ll.count == 0 {
			break // no remaining location can beat the incumbent
		}

		// Expand the node element holding the most users, if any.
		var expand *luElement
		for _, el := range ll.elems {
			if !el.isUser && !el.expanded && (expand == nil || el.count() > expand.count()) {
				expand = el
			}
		}
		if expand != nil {
			node, err := ut.ReadNode(expand.entry.Child)
			if err != nil {
				return Selection{}, stats, err
			}
			children, err := e.elementsOf(node, tr, ri, cands, q, &stats)
			if err != nil {
				return Selection{}, stats, err
			}
			expand.expanded = true
			expand.children = children
			ql.Push(ll, float64(ll.count)) // refresh on next pop
			continue
		}

		// All elements are resolved users: run keyword selection.
		lc := locCandidate{li: ll.li}
		for _, el := range ll.elems {
			lc.users = append(lc.users, el.ui)
		}
		if sel := e.selectKeywords(q, method, lc, w, 1); sel.Count() > best.Count() {
			best = sel
		}
	}
	best.normalize()
	return best, stats, nil
}

// elementsOf converts a MIUR-tree node's entries into LU elements. Leaf
// entries resolve their users' exact thresholds via Algorithm 2 over the
// shared traversal candidates; internal entries get the k-th best
// candidate lower bound w.r.t. their aggregate (a sound RSk lower bound
// for every user beneath).
func (e *Engine) elementsOf(node *miurtree.NodeData, tr *topk.TraversalResult, ri topk.RefineIndex, cands []topk.BoundedObject, q Query, stats *UserIndexStats) ([]*luElement, error) {
	out := make([]*luElement, 0, len(node.Entries))
	if node.Leaf {
		users := make([]dataset.User, len(node.Entries))
		norms := make([]float64, len(node.Entries))
		for i, en := range node.Entries {
			users[i] = e.Users[en.Child]
			norms[i] = e.norms[en.Child]
		}
		per := topk.IndividualTopKWith(e.Tree.Dataset(), e.Scorer, users, norms, tr, ri, q.K)
		for i, en := range node.Entries {
			ui := int(en.Child)
			e.rsk[ui] = per[i].RSk
			stats.ResolvedUsers++
			out = append(out, &luElement{isUser: true, ui: ui, rsk: per[i].RSk})
		}
		return out, nil
	}
	for _, en := range node.Entries {
		out = append(out, &luElement{entry: en, rsk: e.nodeRSkBound(en, cands, q.K)})
	}
	return out, nil
}

// nodeRSkBound returns the k-th best lower bound score of the traversal
// candidates w.r.t. the node aggregate — a lower bound on RSk(u) for every
// user in the subtree.
func (e *Engine) nodeRSkBound(en miurtree.NodeEntry, cands []topk.BoundedObject, k int) float64 {
	tk := container.NewTopK[struct{}](k)
	for _, c := range cands {
		obj := &e.Tree.Dataset().Objects[c.ObjID]
		lb := e.Scorer.Alpha*e.Scorer.SSMin(geo.RectFromPoint(obj.Loc), en.Rect) +
			(1-e.Scorer.Alpha)*minTextOver(e.Scorer, obj.Doc, en.Int)/en.MaxNorm
		tk.Offer(struct{}{}, lb)
	}
	return tk.Threshold()
}

// minTextOver returns Σ_{t∈terms} Weight(d,t).
func minTextOver(s *textrel.Scorer, d vocab.Doc, terms []vocab.TermID) float64 {
	total := 0.0
	for _, t := range terms {
		total += s.Model.Weight(d, t)
	}
	return total
}

// ublElement evaluates UBL(ℓ, element): the exact per-user upper bound for
// users, the aggregate bound for node entries.
func (e *Engine) ublElement(q Query, li int, el *luElement, w keywordSet) float64 {
	if el.isUser {
		u := &e.Users[el.ui]
		ss := e.Scorer.SS(q.Locations[li], u.Loc)
		return e.Scorer.STSAddUpperBound(ss, q.OxDoc, u.Doc, e.norms[el.ui], w.set, q.WS)
	}
	ss := e.Scorer.SSMax(geo.RectFromPoint(q.Locations[li]), el.entry.Rect)
	uniDoc := vocab.DocFromTerms(el.entry.Uni)
	return e.Scorer.STSAddUpperBound(ss, q.OxDoc, uniDoc, el.entry.MinNorm, w.set, q.WS)
}
