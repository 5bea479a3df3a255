package textrel

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/vocab"
)

// allKinds lists every built-in measure.
var allKinds = []MeasureKind{LM, TFIDF, KO, BM25}

// randomDocWith returns a random document holding t at frequency f (f = 0
// leaves t out) whose other terms, drawn from vocabulary ids [0, n) and
// never equal to t, bring the total length to exactly length.
func randomDocWith(rng *rand.Rand, n int, t vocab.TermID, f int32, length int) vocab.Doc {
	tf := map[vocab.TermID]int32{}
	if f > 0 {
		tf[t] = f
	}
	for rest := length - int(f); rest > 0; {
		o := vocab.TermID(rng.Intn(n))
		if o == t {
			continue
		}
		add := int32(1 + rng.Intn(rest))
		tf[o] += add
		rest -= int(add)
	}
	return vocab.NewDoc(tf)
}

// TestWeightReadsOnlyFreqAndLen pins the Model contract the exact keyword
// scan's count kernel rests on: Weight(d, t) depends on d only through
// d.Freq(t) and d.Len(), so documents agreeing on both give bit-identical
// weights — for known and unknown terms, present and absent.
func TestWeightReadsOnlyFreqAndLen(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(300))
	n := ds.Vocab.Size()
	rng := rand.New(rand.NewSource(11))
	for _, kind := range allKinds {
		m := NewModel(kind, ds)
		for trial := 0; trial < 2000; trial++ {
			term := vocab.TermID(rng.Intn(n))
			if rng.Intn(8) == 0 {
				term = vocab.UnknownTerm(rng.Intn(3))
			}
			f := int32(rng.Intn(4))
			length := int(f) + rng.Intn(12)
			if length == 0 {
				length = 1
			}
			a := randomDocWith(rng, n, term, f, length)
			b := randomDocWith(rng, n, term, f, length)
			if a.Len() != b.Len() || a.Freq(term) != b.Freq(term) {
				t.Fatalf("fixture: docs disagree on Len/Freq")
			}
			wa, wb := m.Weight(a, term), m.Weight(b, term)
			if math.Float64bits(wa) != math.Float64bits(wb) {
				t.Fatalf("%s: Weight(·,%d) = %v vs %v for docs with Freq %d, Len %d",
					kind, term, wa, wb, f, length)
			}
		}
	}
}

// TestSTSFromSSBitIdentical pins that STS is STSFromSS over SS, bit for
// bit, under every measure.
func TestSTSFromSSBitIdentical(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(300))
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 40, UL: 4, UW: 20, Area: 10, Seed: 5})
	rng := rand.New(rand.NewSource(12))
	for _, kind := range allKinds {
		s := NewScorer(ds, kind, 0.37)
		norms := s.UserNorms(us.Users)
		for trial := 0; trial < 500; trial++ {
			o := ds.Objects[rng.Intn(len(ds.Objects))]
			ui := rng.Intn(len(us.Users))
			u := &us.Users[ui]
			loc := geo.Point{X: o.Loc.X + rng.Float64(), Y: o.Loc.Y - rng.Float64()}
			want := s.STS(loc, o.Doc, u.Loc, u.Doc, norms[ui])
			got := s.STSFromSS(s.SS(loc, u.Loc), o.Doc, u.Doc, norms[ui])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: STSFromSS %v != STS %v", kind, got, want)
			}
		}
	}
}

// sortedGainsBound is the reference TSAddUpperBound: every positive gain
// collected in term order, then — when more than ws exist — a full
// descending sort truncated to ws.
func sortedGainsBound(s *Scorer, oxDoc, ud vocab.Doc, norm float64, w CandidateSet, ws int) float64 {
	base := 0.0
	var gains []float64
	for _, t := range ud.Terms() {
		base += s.Model.Weight(oxDoc, t)
		if w[t] {
			if g := s.Model.AddWeight(oxDoc, t); g > 0 {
				gains = append(gains, g)
			}
		}
	}
	if ws < len(gains) {
		sort.Sort(sort.Reverse(sort.Float64Slice(gains)))
		gains = gains[:ws]
	}
	for _, g := range gains {
		base += g
	}
	return base / norm
}

// TestTSAddUpperBoundIntoMatchesSort pins the partial top-ws selection to
// the sort-based bound bit for bit, with one scratch reused across users.
func TestTSAddUpperBoundIntoMatchesSort(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(400))
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 40, UL: 8, UW: 20, Area: 10, Seed: 3})
	w := NewCandidateSet(us.Keywords)
	rng := rand.New(rand.NewSource(13))
	for _, kind := range allKinds {
		s := NewScorer(ds, kind, 0.5)
		norms := s.UserNorms(us.Users)
		var gs GainScratch
		for trial := 0; trial < 600; trial++ {
			var oxDoc vocab.Doc
			if rng.Intn(3) > 0 {
				oxDoc = ds.Objects[rng.Intn(len(ds.Objects))].Doc
			}
			ws := rng.Intn(6)
			ui := rng.Intn(len(us.Users))
			u := &us.Users[ui]
			want := sortedGainsBound(s, oxDoc, u.Doc, norms[ui], w, ws)
			got := s.TSAddUpperBoundInto(oxDoc, u.Doc, norms[ui], w, ws, &gs)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s ws=%d: bound %v != sorted %v", kind, ws, got, want)
			}
		}
	}
}

// TestTSAddUpperBoundIntoAllocationFree pins location bounding at zero
// allocations per user bound once the scratch is warm.
func TestTSAddUpperBoundIntoAllocationFree(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(400))
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 20, UL: 8, UW: 20, Area: 10, Seed: 3})
	w := NewCandidateSet(us.Keywords)
	s := NewScorer(ds, LM, 0.5)
	norms := s.UserNorms(us.Users)
	var gs GainScratch
	bound := func() {
		for ui := range us.Users {
			s.TSAddUpperBoundInto(vocab.Doc{}, us.Users[ui].Doc, norms[ui], w, 2, &gs)
		}
	}
	bound() // warm the scratch
	if allocs := testing.AllocsPerRun(20, bound); allocs != 0 {
		t.Errorf("warm TSAddUpperBoundInto allocates %v per pass, want 0", allocs)
	}
}
