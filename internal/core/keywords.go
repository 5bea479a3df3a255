package core

import (
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/vocab"
)

// memoMaxWidth caps the qualification memo of the count kernel: a
// contested user with more candidate terms than this would need
// (ws+1)·2^width memo slots, so the kernel scores such a user directly
// on every combination that can change their membership instead.
const memoMaxWidth = 10

// Memo slot states of exactScratch.memo.
const (
	memoUnknown int8 = iota
	memoQualifies
	memoFails
)

// exactPrep is the per-location state Algorithm 4 shares across keyword
// combinations: the pruned candidate keywords, the user partition, the
// zero-keyword floor selection every combination must strictly beat, and
// the count kernel's index over the contested users.
type exactPrep struct {
	li        int
	cand      []vocab.TermID
	contested []contestedUser
	alwaysIn  []int32
	bare      Selection
	maxSize   int
	// maxCount is |alwaysIn| + |contested|, the most users any
	// combination can reach at this location.
	maxCount int

	// newTerm[i] reports that cand[i] is absent from ox.d, so adding it
	// grows the merged document's length.
	newTerm []bool
	// postOff/post are candidate-index → contested-user postings in CSR
	// form: post[postOff[i]:postOff[i+1]] lists the holders of cand[i].
	postOff []int32
	post    []posting
	// bareIdx lists the contested indexes of the users that qualify on
	// the bare description; they count for a combination that misses
	// their terms only if the longer document does not dilute them.
	bareIdx []int32
	// memoSize is the total number of memo slots over all memoized users.
	memoSize int
}

// posting is one contested user holding a candidate term: the user's
// index into exactPrep.contested and the term's bit in that user's mask
// (zero for users too wide to memoize).
type posting struct {
	cu  int32
	bit uint32
}

// contestedUser is a qualifying-list user whose membership depends on the
// chosen keyword combination. bareQualified records whether ox's bare
// description already clears the user's threshold (relevant under LM,
// where additions may push them back below it). ss is the user's spatial
// proximity to the location; width is the number of the user's terms in
// the candidate set and memoOff the first of the user's (maxSize+1)·2^width
// memo slots, or -1 when width exceeds memoMaxWidth.
type contestedUser struct {
	ui            int
	bareQualified bool
	ss            float64
	width         int
	memoOff       int
}

// prepareExact runs the user- and keyword-pruning of Section 6.2.2 once
// for a location and builds the count kernel's postings.
func (e *Engine) prepareExact(q Query, lc locCandidate, w keywordSet) exactPrep {
	li := lc.li

	// Keyword pruning: only candidates occurring in at least one
	// qualifying user's description can change any user's relevance.
	cand := e.keywordsInUsers(lc.users, w, make([]bool, len(w.terms)))

	// Users already qualifying on ox's bare description (lower bound
	// LBL(ℓ,u) = exact zero-keyword STS ≥ RSk(u)) count for every
	// combination under addition-monotone models; under LM an added
	// keyword can dilute their score below RSk(u), so they stay contested
	// (countCombo re-scores them per combination).
	var alwaysIn []int32
	var contested []contestedUser
	monotone := e.Scorer.Model.AdditionMonotone()
	var bare []int32
	for _, ui := range lc.users {
		qualified := e.isBRSTkNN(q, li, q.OxDoc, ui)
		if qualified {
			bare = append(bare, e.Users[ui].ID)
			if monotone {
				alwaysIn = append(alwaysIn, e.Users[ui].ID)
				continue
			}
		}
		contested = append(contested, contestedUser{
			ui: ui, bareQualified: qualified,
			ss: e.Scorer.SS(q.Locations[li], e.Users[ui].Loc),
		})
	}

	// Definition 1 admits any |W'| ≤ ws. Under TF-IDF and KO larger sets
	// never hurt, but under the Language Model an added keyword lengthens
	// ox.d and can dilute other term weights, so smaller sets may win;
	// enumerate every size up to ws (the size-ws stratum dominates the
	// cost). When the pruned candidate set already fits within ws this
	// degenerates to the paper's early-termination case.
	maxSize := q.WS
	if len(cand) < maxSize {
		maxSize = len(cand)
	}
	p := exactPrep{
		li: li, cand: cand, contested: contested, alwaysIn: alwaysIn,
		bare:     Selection{LocIndex: li, Location: q.Locations[li], Users: bare},
		maxSize:  maxSize,
		maxCount: len(alwaysIn) + len(contested),
	}
	p.buildPostings(e.Users, q.OxDoc)
	return p
}

// buildPostings fills the count kernel's per-location index: which
// candidates are new to ox.d, the candidate → contested-user postings
// with each user's mask bits, the bare-qualified users, and the memo
// layout.
func (p *exactPrep) buildPostings(users []dataset.User, oxDoc vocab.Doc) {
	p.newTerm = make([]bool, len(p.cand))
	for i, t := range p.cand {
		p.newTerm[i] = !oxDoc.Has(t)
	}
	counts := make([]int32, len(p.cand)+1)
	for ci := range p.contested {
		c := &p.contested[ci]
		forEachCandIndex(users[c.ui].Doc.Terms(), p.cand, func(i int) {
			counts[i+1]++
			c.width++
		})
		if c.bareQualified {
			p.bareIdx = append(p.bareIdx, int32(ci))
		}
		c.memoOff = -1
		if c.width <= memoMaxWidth {
			c.memoOff = p.memoSize
			p.memoSize += (p.maxSize + 1) << c.width
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	p.postOff = counts
	p.post = make([]posting, counts[len(counts)-1])
	fill := append([]int32(nil), counts[:len(p.cand)]...)
	for ci := range p.contested {
		c := &p.contested[ci]
		b := 0
		forEachCandIndex(users[c.ui].Doc.Terms(), p.cand, func(i int) {
			pe := posting{cu: int32(ci)}
			if c.memoOff >= 0 {
				pe.bit = 1 << b
			}
			p.post[fill[i]] = pe
			fill[i]++
			b++
		})
	}
}

// forEachCandIndex calls fn with the index into cand of every term of the
// ascending list terms that cand (also ascending) contains, in order.
func forEachCandIndex(terms, cand []vocab.TermID, fn func(i int)) {
	j := 0
	for _, t := range terms {
		for j < len(cand) && cand[j] < t {
			j++
		}
		if j == len(cand) {
			return
		}
		if cand[j] == t {
			fn(j)
		}
	}
}

// exactUnit is one independently scannable chunk of the combination space:
// the size-`size` combinations whose first (smallest) keyword is
// cand[lead]. Units in (size, lead) order concatenate to exactly the
// sequential enumeration order, which is what makes the parallel scan's
// first-winner-wins reduction reproduce the sequential result.
type exactUnit struct {
	size, lead int
}

func (p *exactPrep) units() []exactUnit {
	var out []exactUnit
	for size := 1; size <= p.maxSize; size++ {
		for lead := 0; lead+size <= len(p.cand); lead++ {
			out = append(out, exactUnit{size: size, lead: lead})
		}
	}
	return out
}

// exactScratch holds one worker's reusable state for the combination scan
// of one location: the combination being evaluated (as candidate indexes
// and as terms), the count kernel's touched-user stamps and masks, its
// qualification memo, the merged-document buffers, and the keywords of
// the unit's best combination so far. It binds to a location's exactPrep
// on first use and re-binds (clearing the memo) when handed another. The
// zero value is ready to use; a scratch must not be shared between
// concurrent scans.
type exactScratch struct {
	prep    *exactPrep
	idx     []int32
	combo   []vocab.TermID
	best    []vocab.TermID
	stamp   []uint32
	mask    []uint32
	touched []int32
	epoch   uint32
	memo    []int8
	merge   vocab.MergeScratch
	doc     vocab.Doc
	haveDoc bool
	users   []int32
}

// bind prepares the scratch for p's location: buffers sized for the
// widest unit and every contested user, stamps and memo cleared.
func (sc *exactScratch) bind(p *exactPrep) {
	sc.prep = p
	sc.idx = growTo(sc.idx, p.maxSize)
	sc.combo = growTo(sc.combo, p.maxSize)
	sc.best = growTo(sc.best, p.maxSize)
	sc.stamp = growTo(sc.stamp, len(p.contested))
	clear(sc.stamp)
	sc.mask = growTo(sc.mask, len(p.contested))
	sc.touched = growTo(sc.touched, len(p.contested))
	sc.epoch = 0
	sc.memo = growTo(sc.memo, p.memoSize)
	clear(sc.memo)
}

// growTo returns s resliced to length n, reallocating only when its
// capacity is short.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// unitBest is one unit's scan result: the count and keywords of its first
// combination strictly beating the floor and every earlier combination
// of the unit (found is false when none did).
type unitBest struct {
	count    int
	keywords []vocab.TermID
	found    bool
}

// scanUnit evaluates one unit's combinations in enumeration order with
// the count kernel. It stops early once a combination reaches the
// location's achievable maximum: later combinations can only tie it, and
// ties never replace the incumbent.
//
//maxbr:hotpath
func (e *Engine) scanUnit(q Query, p *exactPrep, u exactUnit, sc *exactScratch) unitBest {
	res := unitBest{count: p.bare.Count()}
	if res.count >= p.maxCount {
		return res
	}
	if sc.prep != p {
		sc.bind(p)
	}
	k := u.size
	last := int32(len(p.cand))
	idx := sc.idx[:k]
	for i := range idx {
		idx[i] = int32(u.lead + i)
	}
	for {
		if n := e.countCombo(q, p, idx, sc); n > res.count {
			res.count, res.found = n, true
			copy(sc.best, sc.combo)
			if n == p.maxCount {
				break
			}
		}
		// Advance the rightmost non-lead position that can still move.
		i := k - 1
		for i >= 1 && idx[i] == last-int32(k-i) {
			i--
		}
		if i < 1 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	if res.found {
		//maxbr:ignore hotpathalloc one result per unit, not per combination
		res.keywords = append([]vocab.TermID(nil), sc.best[:k]...)
	}
	return res
}

// countCombo is the count kernel: |BRSTkNN| of 〈location, ox.d ∪ c〉 for
// the combination c = cand[idx], equal to len(tupleUsersInto(c)).
//
// Because every Model's Weight(d, t) reads only d.Freq(t) and d.Len(),
// and merging c into ox.d adds frequency-1 terms and grows the length
// only by the n terms of c new to ox.d, a user's exact score against
// ox.d ∪ c depends only on n and on which of the user's candidate terms
// c holds (their mask). The kernel walks c's postings to collect the
// touched users and their masks, then counts the always-qualifying
// users, the untouched bare-qualified users that qualify at (n, 0) and
// the touched users that qualify at (n, mask). Each qualification is
// looked up in the scratch's memo and, on a miss, computed by the same
// exact STS comparison as isBRSTkNN on the real merged document. sc must
// be bound to p (see exactScratch.bind); on return sc.combo holds c.
//
//maxbr:hotpath
func (e *Engine) countCombo(q Query, p *exactPrep, idx []int32, sc *exactScratch) int {
	sc.combo = sc.combo[:len(idx)]
	for i, ci := range idx {
		sc.combo[i] = p.cand[ci]
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide
		clear(sc.stamp)
		sc.epoch = 1
	}
	epoch := sc.epoch
	n, touched := 0, 0
	for _, ci := range idx {
		if p.newTerm[ci] {
			n++
		}
		for _, pe := range p.post[p.postOff[ci]:p.postOff[ci+1]] {
			if sc.stamp[pe.cu] != epoch {
				sc.stamp[pe.cu] = epoch
				sc.mask[pe.cu] = 0
				sc.touched[touched] = pe.cu
				touched++
			}
			sc.mask[pe.cu] |= pe.bit
		}
	}
	sc.haveDoc = false
	count := len(p.alwaysIn)
	for _, cu := range p.bareIdx {
		if sc.stamp[cu] != epoch && e.comboQualifies(q, p, sc, cu, n, 0) {
			count++
		}
	}
	for _, cu := range sc.touched[:touched] {
		if e.comboQualifies(q, p, sc, cu, n, sc.mask[cu]) {
			count++
		}
	}
	return count
}

// comboQualifies reports whether contested user cu qualifies for the
// scratch's current combination, which adds n new terms to ox.d and holds
// the user's candidate terms in mask.
func (e *Engine) comboQualifies(q Query, p *exactPrep, sc *exactScratch, cu int32, n int, mask uint32) bool {
	c := &p.contested[cu]
	if c.memoOff < 0 {
		return e.comboScore(q, sc, c)
	}
	slot := c.memoOff + n<<c.width + int(mask)
	switch sc.memo[slot] {
	case memoQualifies:
		return true
	case memoFails:
		return false
	}
	ok := e.comboScore(q, sc, c)
	sc.memo[slot] = memoFails
	if ok {
		sc.memo[slot] = memoQualifies
	}
	return ok
}

// comboScore is isBRSTkNN for the scratch's current combination, merging
// ox.d ∪ c at most once per combination and reusing the user's hoisted
// spatial proximity (STS goes through STSFromSS, so the score is
// bit-identical).
func (e *Engine) comboScore(q Query, sc *exactScratch, c *contestedUser) bool {
	if !sc.haveDoc {
		sc.doc = q.OxDoc.MergeTermsInto(sc.combo, &sc.merge)
		sc.haveDoc = true
	}
	u := &e.Users[c.ui]
	return e.Scorer.STSFromSS(c.ss, sc.doc, u.Doc, e.norms[c.ui]) >= e.rsk[c.ui]
}

// selectKeywordsExact implements Algorithm 4: enumerate size-ws
// combinations of the pruned candidate keywords and count each tuple's
// BRSTkNN exactly, with the user- and keyword-pruning of Section 6.2.2.
// The combination space is chunked into units; with workers > 1 the units
// fan out over a bounded pool, and the in-order reduction keeps the result
// identical to the sequential scan. Only the winning combination's user
// list is materialized.
func (e *Engine) selectKeywordsExact(q Query, lc locCandidate, w keywordSet, workers int) Selection {
	p := e.prepareExact(q, lc, w)
	units := p.units()
	best := unitBest{count: p.bare.Count()}
	var sc exactScratch // sequential scan and final materialization

	if workers <= 1 || len(units) <= 1 {
		for _, u := range units {
			if r := e.scanUnit(q, &p, u, &sc); r.found && r.count > best.count {
				best = r
			}
			if best.count >= p.maxCount {
				break // later units can only tie
			}
		}
	} else {
		results := make([]unitBest, len(units))
		scratches := make([]exactScratch, parallel.Workers(len(units), workers))
		// reached is the earliest unit known to hit the achievable
		// maximum; a later unit can only tie it and is skipped.
		var reached atomic.Int64
		reached.Store(int64(len(units)))
		parallel.ForNWorkers(len(units), workers, func(w, i int) {
			if reached.Load() < int64(i) {
				return
			}
			results[i] = e.scanUnit(q, &p, units[i], &scratches[w])
			if results[i].count < p.maxCount {
				return
			}
			for cur := reached.Load(); int64(i) < cur; cur = reached.Load() {
				if reached.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		})
		for _, r := range results {
			if r.found && r.count > best.count {
				best = r
			}
		}
	}

	if !best.found {
		return p.bare
	}
	users := e.tupleUsersInto(q, p.li, best.keywords, p.contested, p.alwaysIn, &sc)
	return Selection{
		LocIndex: p.li,
		Location: q.Locations[p.li],
		Keywords: best.keywords,
		Users:    append([]int32(nil), users...),
	}
}

// tupleUsersInto counts the BRSTkNN of 〈location li, ox.d ∪ combo〉: the
// always-qualifying users plus every contested user whose exact score with
// the combination clears their threshold. Contested users sharing no
// keyword with the combination are skipped unless they qualified on the
// bare description — additions can only lower their score (strictly, under
// LM) or leave it unchanged, never raise it. The returned slice aliases
// the scratch and stays valid only until its next use; callers retaining
// it must copy.
func (e *Engine) tupleUsersInto(q Query, li int, combo []vocab.TermID, contested []contestedUser, alwaysIn []int32, sc *exactScratch) []int32 {
	users := append(sc.users[:0], alwaysIn...)
	doc := q.OxDoc.MergeTermsInto(combo, &sc.merge)
	for _, c := range contested {
		if !c.bareQualified && !overlapsAny(e.Users[c.ui].Doc, combo) {
			continue // added keywords cannot raise this user's score
		}
		if e.isBRSTkNN(q, li, doc, c.ui) {
			users = append(users, e.Users[c.ui].ID)
		}
	}
	sc.users = users
	return users
}

func overlapsAny(d vocab.Doc, terms []vocab.TermID) bool {
	for _, t := range terms {
		if d.Has(t) {
			return true
		}
	}
	return false
}

// keywordsInUsers returns W ∩ (∪ u.d over the given users), ascending.
// marks is caller scratch of len(w.terms), all false on entry and on
// return; the result is the only allocation.
func (e *Engine) keywordsInUsers(users []int, w keywordSet, marks []bool) []vocab.TermID {
	n := 0
	for _, ui := range users {
		forEachCandIndex(e.Users[ui].Doc.Terms(), w.terms, func(i int) {
			if !marks[i] {
				marks[i] = true
				n++
			}
		})
	}
	out := make([]vocab.TermID, 0, n)
	for i, m := range marks {
		if m {
			out = append(out, w.terms[i])
			marks[i] = false
		}
	}
	return out
}

// selectKeywordsGreedy implements the (1−1/e)-approximate keyword
// selection of Section 6.2.1: build, for every candidate keyword, the
// optimistic user list LUW_w (via the HW_{w,u} top-weighted completion),
// run greedy maximum coverage, then count the chosen set exactly.
func (e *Engine) selectKeywordsGreedy(q Query, lc locCandidate, w keywordSet) Selection {
	li := lc.li

	// Preprocessing: LUW_w per keyword. A user joins LUW_w when w's
	// top-weighted completion HW_{w,u} qualifies them (the paper's test),
	// or when w alone does — the singleton test matters under LM, where
	// the extra completion keywords lengthen ox.d and can dilute the very
	// score the completion was meant to maximize.
	luw := make(map[vocab.TermID][]int)
	for _, ui := range lc.users {
		u := &e.Users[ui]
		for _, t := range u.Doc.Terms() {
			if !w.set[t] {
				continue
			}
			hw := e.Scorer.TopWeightedCandidates(q.OxDoc, u.Doc, w.set, q.WS, t, true)
			qualifies := e.sts(q, li, q.OxDoc.MergeTerms(hw), ui) >= e.rsk[ui]
			if !qualifies && len(hw) > 1 {
				qualifies = e.sts(q, li, q.OxDoc.MergeTerms([]vocab.TermID{t}), ui) >= e.rsk[ui]
			}
			if qualifies {
				luw[t] = append(luw[t], ui)
			}
		}
	}

	// Greedy maximum coverage over the LUW sets.
	covered := make(map[int]bool)
	var chosen []vocab.TermID
	for len(chosen) < q.WS && len(luw) > 0 {
		var bestT vocab.TermID
		bestGain := -1
		for t, users := range luw {
			gain := 0
			for _, ui := range users {
				if !covered[ui] {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && t < bestT) {
				bestT, bestGain = t, gain
			}
		}
		if bestGain <= 0 {
			break
		}
		for _, ui := range luw[bestT] {
			covered[ui] = true
		}
		chosen = append(chosen, bestT)
		delete(luw, bestT)
	}

	// The LUW lists are optimistic; count exactly. Under LM a prefix of
	// the greedy choice can beat the full set (later picks dilute earlier
	// ones), so evaluate every prefix — ws exact counts, still far from
	// the exact method's C(|W|, ws).
	sel := Selection{LocIndex: li, Location: q.Locations[li]}
	sel.Users = e.countBRSTkNN(q, li, nil, lc.users) // zero-keyword floor
	for end := 1; end <= len(chosen); end++ {
		prefix := chosen[:end]
		users := e.countBRSTkNN(q, li, prefix, lc.users)
		if len(users) > len(sel.Users) {
			sel.Keywords = append([]vocab.TermID(nil), prefix...)
			sel.Users = users
		}
	}
	return sel
}
