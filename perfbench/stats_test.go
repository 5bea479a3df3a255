package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	// 1..20 shuffled: nearest rank of p over n=20 is ceil(p/100·20).
	s := []float64{7, 3, 20, 1, 14, 9, 2, 18, 5, 11, 16, 4, 13, 8, 19, 6, 15, 10, 17, 12}
	for _, c := range []struct {
		p         float64
		want      float64
		tail      int
		isFlagged bool
	}{
		{50, 10, 10, false},
		{5, 1, 19, false},
		{50.1, 11, 9, true},
		{95, 19, 1, true},
		{100, 20, 0, true},
	} {
		got := percentile(s, c.p)
		if got.Value != c.want || got.Tail != c.tail || got.Flagged() != c.isFlagged {
			t.Errorf("p%v = %+v (flagged %v), want %v with tail %d (flagged %v)",
				c.p, got, got.Flagged(), c.want, c.tail, c.isFlagged)
		}
	}
	if s[0] != 7 {
		t.Fatal("percentile reordered its input")
	}
}

func TestPercentileFlagsShortTails(t *testing.T) {
	// p95 needs n ≥ 200 to keep ten samples beyond it; p50 needs n ≥ 20.
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	if percentile(mk(199), 95).Flagged() != true || percentile(mk(200), 95).Flagged() != false {
		t.Error("p95 flag boundary is not at 200 samples")
	}
	if percentile(mk(19), 50).Flagged() != true || percentile(mk(20), 50).Flagged() != false {
		t.Error("p50 flag boundary is not at 20 samples")
	}
	if v := percentile(nil, 50); !math.IsNaN(v.Value) || !v.Flagged() {
		t.Errorf("empty sample gave %+v", v)
	}
}
