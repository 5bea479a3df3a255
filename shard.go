package maxbrstknn

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/textrel"
	"repro/internal/topk"
	"repro/internal/vocab"
)

// FrozenCorpus captures the global corpus context of an index at build
// time: the vocabulary, the collection-level term statistics, the object
// space rectangle, and the relevance model's per-term corpus maxima. It
// is everything a shard build needs so that a shard index — holding only
// a subset of the objects — scores, normalizes, and bounds exactly like
// the global index: frozen stats make every term weight bit-identical,
// and the frozen space makes dmax (Equation 2) identical for any query.
//
// FrozenCorpus reflects the snapshot's build-time vocabulary (the one the
// corpus statistics and model cover), so capture it before mutating the
// index.
type FrozenCorpus struct {
	// Terms is the vocabulary in term-id order.
	Terms []string
	// CollectionFreq, DocFreq, TotalTerms, NumDocs are the global
	// dataset.CorpusStats.
	CollectionFreq []int64
	DocFreq        []int32
	TotalTerms     int64
	NumDocs        int32
	// Space is the global object MBR as {MinX, MinY, MaxX, MaxY}.
	Space [4]float64
	// MaxW is the model's per-term maximum weight over the global corpus
	// (the UB machinery's only object-derived state).
	MaxW []float64
}

// FrozenCorpus extracts the index's frozen global context for shard
// builds.
func (ix *Index) FrozenCorpus() FrozenCorpus {
	sn := ix.acquire()
	defer sn.tree.Unpin()
	ds := sn.tree.Dataset()
	n := len(ds.Stats.CollectionFreq) // build-time vocabulary size
	fc := FrozenCorpus{
		Terms:          make([]string, n),
		CollectionFreq: append([]int64(nil), ds.Stats.CollectionFreq...),
		DocFreq:        append([]int32(nil), ds.Stats.DocFreq...),
		TotalTerms:     ds.Stats.TotalTerms,
		NumDocs:        ds.Stats.NumDocs,
		Space:          [4]float64{ds.Space.Min.X, ds.Space.Min.Y, ds.Space.Max.X, ds.Space.Max.Y},
		MaxW:           textrel.MaxWeights(ix.model, n),
	}
	for id := 0; id < n; id++ {
		fc.Terms[id] = sn.vocab.Term(vocab.TermID(id))
	}
	return fc
}

// FrozenCorpusOf computes a dataset's frozen global context directly —
// statistics, space, and model maxima, with no tree build — so a shard
// process can derive the context from the raw dataset without ever
// materializing the global index. The result is identical to building
// the global index with the same options and calling Index.FrozenCorpus:
// both construct the model through the one shared path.
func FrozenCorpusOf(ds *dataset.Dataset, opts Options) (FrozenCorpus, error) {
	if err := opts.Validate(); err != nil {
		return FrozenCorpus{}, err
	}
	if len(ds.Objects) == 0 {
		return FrozenCorpus{}, fmt.Errorf("maxbrstknn: empty dataset")
	}
	model := opts.newModel(ds)
	n := len(ds.Stats.CollectionFreq)
	fc := FrozenCorpus{
		Terms:          make([]string, n),
		CollectionFreq: append([]int64(nil), ds.Stats.CollectionFreq...),
		DocFreq:        append([]int32(nil), ds.Stats.DocFreq...),
		TotalTerms:     ds.Stats.TotalTerms,
		NumDocs:        ds.Stats.NumDocs,
		Space:          [4]float64{ds.Space.Min.X, ds.Space.Min.Y, ds.Space.Max.X, ds.Space.Max.Y},
		MaxW:           textrel.MaxWeights(model, n),
	}
	for id := 0; id < n; id++ {
		fc.Terms[id] = ds.Vocab.Term(vocab.TermID(id))
	}
	return fc, nil
}

// ShardBuilder accumulates one shard's slice of the global object set
// before building a ShardIndex under a frozen global corpus context.
type ShardBuilder struct {
	frozen  FrozenCorpus
	vocab   *vocab.Vocabulary
	objects []dataset.Object
	gids    []int32
}

// NewShardBuilder returns an empty builder for one shard of the corpus
// frozen in fc.
func NewShardBuilder(fc FrozenCorpus) *ShardBuilder {
	v := vocab.New()
	for _, t := range fc.Terms {
		v.Add(t)
	}
	return &ShardBuilder{frozen: fc, vocab: v}
}

// AddObject registers one global object in this shard. globalID is the
// object's id in the global index; every keyword must belong to the
// frozen vocabulary (shard inputs are a split of the global dataset, so
// an unknown keyword is a split bug, not data). Objects may arrive in any
// order — Build sorts them by global id.
func (b *ShardBuilder) AddObject(globalID int, x, y float64, keywords ...string) error {
	if globalID < 0 {
		return fmt.Errorf("maxbrstknn: negative global object id %d", globalID)
	}
	terms := make([]vocab.TermID, len(keywords))
	for i, kw := range keywords {
		id, ok := b.vocab.Lookup(kw)
		if !ok {
			return fmt.Errorf("maxbrstknn: shard keyword %q not in the frozen vocabulary", kw)
		}
		terms[i] = id
	}
	b.gids = append(b.gids, int32(globalID))
	b.objects = append(b.objects, dataset.Object{
		Loc: geo.Point{X: x, Y: y},
		Doc: vocab.DocFromTerms(terms),
	})
	return nil
}

// Len returns the number of objects added so far.
func (b *ShardBuilder) Len() int { return len(b.objects) }

// Build constructs the shard index. The shard's dataset carries the
// frozen global statistics and space instead of recomputed local ones
// (the same injection Compact performs), and the relevance model is
// rebuilt frozen — so every score, normalizer, and upper bound matches
// the global index bit for bit. Objects get local dense ids in ascending
// global-id order: local tie-breaks (always ascending object id) then
// order exactly like global ones, which is what makes coordinator-side
// top-k merges exact.
func (b *ShardBuilder) Build(opts Options) (*ShardIndex, error) {
	if len(b.objects) == 0 {
		return nil, fmt.Errorf("maxbrstknn: no objects added to shard")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	order := make([]int, len(b.objects))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return b.gids[order[i]] < b.gids[order[j]] })
	objects := make([]dataset.Object, len(order))
	gids := make([]int32, len(order))
	for li, oi := range order {
		if li > 0 && b.gids[oi] == gids[li-1] {
			return nil, fmt.Errorf("maxbrstknn: duplicate global object id %d in shard", b.gids[oi])
		}
		objects[li] = b.objects[oi]
		objects[li].ID = int32(li)
		gids[li] = b.gids[oi]
	}
	// The index owns a private vocabulary copy (identical ids), like
	// Builder.Build.
	v := vocab.New()
	for _, t := range b.frozen.Terms {
		v.Add(t)
	}
	ds := &dataset.Dataset{
		Objects: objects,
		Vocab:   v,
		Stats: dataset.CorpusStats{
			CollectionFreq: append([]int64(nil), b.frozen.CollectionFreq...),
			DocFreq:        append([]int32(nil), b.frozen.DocFreq...),
			TotalTerms:     b.frozen.TotalTerms,
			NumDocs:        b.frozen.NumDocs,
		},
		Space: geo.Rect{
			Min: geo.Point{X: b.frozen.Space[0], Y: b.frozen.Space[1]},
			Max: geo.Point{X: b.frozen.Space[2], Y: b.frozen.Space[3]},
		},
	}
	model, err := textrel.NewModelFrozen(opts.Measure.kind(), ds, opts.lambda(), b.frozen.MaxW)
	if err != nil {
		return nil, err
	}
	mir := irtree.Build(ds, model, irtree.Config{
		Kind:              irtree.MIRTree,
		Fanout:            opts.fanout(),
		DecodedCacheBytes: opts.decodedCacheBytes(),
		PackedPostings:    opts.PackedPostings,
	})
	return &ShardIndex{Index: newIndex(opts, model, mir, nil, 0, nil), globalIDs: gids}, nil
}

// ShardIndex is an Index over one shard's objects that remembers the
// global id of each local object. It is immutable: the frozen statistics
// and the local→global id map would both desynchronize under mutation,
// so the mutating Index methods are overridden to fail.
type ShardIndex struct {
	*Index
	globalIDs []int32 // local dense id → global id, strictly ascending
}

var errShardImmutable = fmt.Errorf("maxbrstknn: shard indexes are immutable (rebuild the shard instead)")

// AddObject always fails: shard indexes are immutable.
func (six *ShardIndex) AddObject(x, y float64, keywords ...string) (int, error) {
	return 0, errShardImmutable
}

// DeleteObject always fails: shard indexes are immutable.
func (six *ShardIndex) DeleteObject(id int) error { return errShardImmutable }

// UpdateObject always fails: shard indexes are immutable.
func (six *ShardIndex) UpdateObject(id int, x, y float64, keywords ...string) (int, error) {
	return 0, errShardImmutable
}

// GlobalID maps a local object id to its global id.
func (six *ShardIndex) GlobalID(local int) int { return int(six.globalIDs[local]) }

// TopK is Index.TopK with results remapped to global object ids. Scores
// are globally exact (frozen context); the ranking is the shard's local
// top-k, which a coordinator merges across shards by (score descending,
// global id ascending) to recover the global list.
func (six *ShardIndex) TopK(x, y float64, keywords []string, k int) ([]RankedObject, error) {
	out, err := six.Index.TopK(x, y, keywords, k)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].ObjectID = int(six.globalIDs[out[i].ObjectID])
	}
	return out, nil
}

// ShardSession is a session over one shard for coordinator-driven
// scatter-gather serving. Unlike a Session it prepares no thresholds of
// its own: phase 1 runs on demand with coordinator-forwarded score seeds
// (Phase1), and phase 2 runs under coordinator-supplied global
// thresholds (Scatter). It pins the shard's snapshot exactly like a
// Session and is safe for concurrent Phase1/Scatter calls.
type ShardSession struct {
	s  *Session
	ix *ShardIndex
}

// NewShardSession builds a shard session for one user cohort. The cohort
// must be the full, identically-ordered user list every shard of the
// deployment sees: user indexes in results and threshold vectors are
// cohort positions, and they must agree across shards and coordinator.
func (six *ShardIndex) NewShardSession(users []UserSpec, k int) (*ShardSession, error) {
	s, err := six.Index.newSession(users, k)
	if err != nil {
		return nil, err
	}
	return &ShardSession{s: s, ix: six}, nil
}

// Close releases the session's snapshot pin.
func (ss *ShardSession) Close() error { return ss.s.Close() }

// ShardPhase1 is one shard's joint top-k answer: each cohort user's
// local top-k over the shard's objects (global ids, score descending with
// ascending-id tie-breaks) plus the shard's work counters. Visited is
// tree nodes expanded by the group traversals; Refined is candidates
// actually scored during per-user refinement — the counter where bound
// forwarding shows up, since a seeded threshold truncates each
// descending-UB candidate scan earlier.
type ShardPhase1 struct {
	PerUser [][]RankedObject
	Visited int
	Refined int
}

// Phase1 computes every cohort user's top-k over this shard's objects.
// seeds[u] (optional — nil means no bounds known) is a lower bound on
// user u's global k-th best score, established by the coordinator from
// shards that already answered; the shard's traversals and refinements
// prune below it, losslessly for the merged global top-k. A seed ≤ 0 is
// no bound, since every score is ≥ 0. Merging all shards' lists per user
// by (score descending, global id ascending) and keeping k reproduces
// the single-index lists and thresholds exactly.
func (ss *ShardSession) Phase1(seeds []float64, opts ParallelOptions) (ShardPhase1, error) {
	if err := ss.s.checkOpen("Phase1"); err != nil {
		return ShardPhase1{}, err
	}
	if seeds != nil && len(seeds) != len(ss.s.users) {
		return ShardPhase1{}, fmt.Errorf("maxbrstknn: %d seeds for %d users", len(seeds), len(ss.s.users))
	}
	po := opts.core().Normalize()
	res, err := topk.JointTopK(ss.s.snap.tree, ss.s.engine.Scorer, ss.s.users, ss.s.k, po.Workers, po.Groups, seeds)
	if err != nil {
		return ShardPhase1{}, err
	}
	out := ShardPhase1{PerUser: make([][]RankedObject, len(res.PerUser)), Visited: res.Visited, Refined: res.Refined}
	for i, p := range res.PerUser {
		rs := make([]RankedObject, len(p.Results))
		for j, r := range p.Results {
			rs[j] = RankedObject{ObjectID: int(ss.ix.globalIDs[r.ObjID]), Score: r.Score}
		}
		out.PerUser[i] = rs
	}
	return out, nil
}

// MergeTopK folds per-shard ranked lists (as Phase1 and ShardIndex.TopK
// return them) into the global top-k: sort by score descending with
// ascending global-id tie-breaks, keep k. Because every shard list is
// its shard's exact local top-k under the same order, the merge equals
// the single-index list whenever that order is the single index's —
// which it is for Phase1 always, and for TopK when scores are distinct.
// A k ≤ 0 keeps nothing.
func MergeTopK(k int, lists ...[]RankedObject) []RankedObject {
	var all []RankedObject
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ObjectID < all[j].ObjectID
	})
	if k = max(k, 0); len(all) > k {
		all = all[:k]
	}
	return all
}

// ThresholdFromMerged returns RSk(u) — the prepared phase-2 threshold —
// from a user's merged global top-k list: the k-th best score when the
// list is full, and the same "nothing qualifies yet" sentinel the
// single-index refinement heap reports otherwise.
func ThresholdFromMerged(merged []RankedObject, k int) float64 {
	if len(merged) >= k {
		return merged[k-1].Score
	}
	return -math.MaxFloat64
}

// ShardCandidate is one evaluated candidate location a shard returns from
// Scatter: the answer in facade terms plus |LU_ℓ|, the qualifying-user
// count that orders the scan the coordinator replays.
type ShardCandidate struct {
	Result Result
	LU     int
}

// ScatterStats re-exports the phase-2 work counters of a Scatter call.
type ScatterStats = core.ScatterStats

// Scatter evaluates this shard's assigned candidate locations for one
// request, under coordinator-supplied global per-user thresholds rsk
// (cohort-indexed, from ThresholdFromMerged). list selects the top-l
// evaluation body (RunTopL's) instead of the single-best one (Run's).
// floor is the bound forwarded from shards that already answered — the
// best count achieved so far; candidates that provably cannot beat it
// are skipped (best mode only; see core.ScatterSelect for why the top-l
// replay must see every positive candidate).
//
// Replaying the single-index scan over the union of all shards'
// candidates reproduces Run / RunTopL byte for byte; phase 2 reads only
// model state and the thresholds — never the shard's object tree — so
// location→shard assignment is pure load balancing.
func (ss *ShardSession) Scatter(req Request, rsk []float64, assigned []int, floor int, list bool) ([]ShardCandidate, ScatterStats, error) {
	var stats ScatterStats
	if err := ss.s.checkOpen("Scatter"); err != nil {
		return nil, stats, err
	}
	if req.K != ss.s.k {
		return nil, stats, errKMismatch(req.K, ss.s.k)
	}
	var mode core.ScatterMode
	var method core.KeywordMethod
	switch req.Strategy {
	case Exact:
		mode, method = core.ScatterBest, core.KeywordsExact
	case Approx:
		mode, method = core.ScatterBest, core.KeywordsApprox
	case Exhaustive:
		if list {
			return nil, stats, fmt.Errorf("maxbrstknn: top-l does not support the %s strategy", req.Strategy)
		}
		mode, method = core.ScatterExhaustive, core.KeywordsExact
	case UserIndexed:
		// Section 7 prunes with a per-shard user tree whose bounds are
		// not comparable across shards; a coordinator routes it to a
		// single index instead.
		return nil, stats, fmt.Errorf("maxbrstknn: the %s strategy cannot be scattered", req.Strategy)
	default:
		return nil, stats, fmt.Errorf("maxbrstknn: unknown strategy %d", int(req.Strategy))
	}
	if list {
		mode = core.ScatterTopL
	}
	eng, err := ss.s.engine.WithThresholds(ss.s.k, rsk)
	if err != nil {
		return nil, stats, err
	}
	q, err := ss.s.buildQuery(req)
	if err != nil {
		return nil, stats, err
	}
	cands, stats, err := eng.ScatterSelect(q, method, mode, assigned, floor, req.Parallel.core().Normalize().Workers)
	if err != nil {
		return nil, stats, err
	}
	out := make([]ShardCandidate, len(cands))
	for i, c := range cands {
		out[i] = ShardCandidate{Result: ss.s.buildResult(req, c.Sel, core.UserIndexStats{}), LU: c.LU}
	}
	return out, stats, nil
}
