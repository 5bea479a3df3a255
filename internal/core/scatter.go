package core

import (
	"fmt"
	"sort"
)

// ScatterMode selects which single-index selection loop a shard's partial
// evaluation feeds. The coordinator replays the loop over the merged
// per-shard candidates, so each mode's evaluation body must match its
// single-index counterpart exactly (see ScatterSelect).
type ScatterMode int

const (
	// ScatterBest feeds Select's first-max scan (evalLocation bodies).
	ScatterBest ScatterMode = iota
	// ScatterTopL feeds SelectTopL's bounded-heap scan (direct keyword
	// selection — SelectTopL does not take evalLocation's saturation
	// shortcut, and neither does this mode).
	ScatterTopL
	// ScatterExhaustive feeds Baseline's location × combination scan.
	ScatterExhaustive
)

// String implements fmt.Stringer.
func (m ScatterMode) String() string {
	switch m {
	case ScatterBest:
		return "best"
	case ScatterTopL:
		return "topl"
	case ScatterExhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("ScatterMode(%d)", int(m))
	}
}

// ScatterCandidate is one evaluated candidate location a shard returns to
// the coordinator: the selection plus |LU_ℓ|, the qualifying-user count
// that orders the single-index scan the coordinator replays.
type ScatterCandidate struct {
	Sel Selection
	LU  int
}

// ScatterStats counts the phase-2 work one ScatterSelect performed — the
// observable the sharded experiments use to show a forwarded floor
// skipping evaluations.
type ScatterStats struct {
	// Assigned counts this shard's assigned locations that survived the
	// candidate filter (for ScatterExhaustive: all assigned locations).
	Assigned int
	// Evaluated counts keyword selections actually computed.
	Evaluated int
	// SkippedFloor counts candidates skipped because |LU_ℓ| was below the
	// forwarded floor or a count this shard already achieved (ScatterBest
	// only).
	SkippedFloor int
}

// WithThresholds returns a shallow clone of e prepared with the supplied
// per-user k-th best scores instead of thresholds computed by a local
// traversal. The clone shares the engine's immutable state (tree, scorer,
// users, norms, super-user) and owns only its prepared thresholds, so
// clones with different rsk vectors may select concurrently. This is how
// a shard serves phase 2 under coordinator-supplied global thresholds:
// selection reads only scorer/model state and the thresholds, never the
// shard's object tree, so global rsk makes its answers globally exact.
func (e *Engine) WithThresholds(k int, rsk []float64) (*Engine, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive")
	}
	if len(rsk) != len(e.Users) {
		return nil, fmt.Errorf("core: %d thresholds for %d users", len(rsk), len(e.Users))
	}
	clone := *e
	clone.SetPrepared(k, append([]float64(nil), rsk...), minThreshold(rsk))
	return &clone, nil
}

// ScatterSelect evaluates this engine's share of a scatter-gathered
// selection: the candidate locations whose index appears in assigned,
// under the already-prepared per-user thresholds. It runs the location
// loop of the single-index driver for the mode over the assigned subset
// and returns every evaluated candidate whose count is positive (and, in
// ScatterBest mode, at least floor), each normalized, in ascending
// location order. The coordinator replays the single-index scan over the
// union of shard candidates; exactness rests on three facts.
//
//  1. Every per-location evaluation here is the single-index body for the
//     mode, and its result does not depend on any incumbent.
//  2. In ScatterBest mode a candidate is skipped when |LU_ℓ| is below the
//     forwarded floor — a count some other shard already achieved — or
//     below a count this shard already achieved. Its count is then below
//     the replayed scan's maximum, and the scan advances only on strictly
//     greater counts, so no skipped candidate can be its first maximum.
//  3. For ScatterTopL the bounded heap's eviction among equal counts
//     depends on the full offer sequence, so nothing is skipped and every
//     positive-count candidate is returned — the replayed offer sequence
//     is then identical to the single-index one.
//
// ScatterExhaustive returns each assigned location's
// first-in-combination-order best, which the coordinator folds in
// ascending location order — the same first-max the flat location ×
// combination scan produces.
//
// workers bounds the goroutines used to evaluate locations concurrently;
// answers are worker-count independent.
func (e *Engine) ScatterSelect(q Query, method KeywordMethod, mode ScatterMode, assigned []int, floor int, workers int) ([]ScatterCandidate, ScatterStats, error) {
	var stats ScatterStats
	if err := e.ensurePrepared(q); err != nil {
		return nil, stats, err
	}
	inAssigned := make(map[int]bool, len(assigned))
	for _, li := range assigned {
		if li < 0 || li >= len(q.Locations) {
			return nil, stats, fmt.Errorf("core: assigned location %d out of range", li)
		}
		inAssigned[li] = true
	}

	if mode != ScatterBest {
		floor = 0 // only the single-best replay tolerates skipped candidates
	}
	var cands []ScatterCandidate
	switch mode {
	case ScatterBest, ScatterTopL:
		w := newKeywordSet(q)
		var lcs []locCandidate
		for _, lc := range e.locationCandidates(q, w, true) {
			if inAssigned[lc.li] {
				lcs = append(lcs, lc)
			}
		}
		stats.Assigned = len(lcs)
		eval := func(lc locCandidate, comboWorkers int) Selection {
			return e.evalLocation(q, method, w, lc, comboWorkers)
		}
		if mode == ScatterTopL {
			// SelectTopL's body: keyword selection without evalLocation's
			// saturation shortcut.
			eval = func(lc locCandidate, comboWorkers int) Selection {
				return e.selectKeywords(q, method, lc, w, comboWorkers)
			}
		}
		cands = e.evalLocations(lcs, workers, floor, mode == ScatterBest, eval)
	case ScatterExhaustive:
		stats.Assigned = len(assigned)
		cands = e.evalExhaustive(q, assigned, workers)
		for i := range cands {
			cands[i].LU = cands[i].Sel.Count()
		}
	default:
		return nil, stats, fmt.Errorf("core: unknown scatter mode %d", int(mode))
	}
	stats.Evaluated = len(cands)
	stats.SkippedFloor = stats.Assigned - stats.Evaluated

	out := cands[:0]
	for _, c := range cands {
		if c.Sel.Count() > 0 && c.Sel.Count() >= floor {
			c.Sel.normalize()
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Sel.LocIndex < out[j].Sel.LocIndex
	})
	return out, stats, nil
}
