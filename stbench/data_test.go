package main

import (
	"math"
	"math/rand"
	"testing"
)

// handTable is a 2-d table small enough to count by hand:
//
//	(0,0) (1,1) (2,2) (2,0) (3,3)
func handTable() *table {
	return &table{
		cols: []string{"x", "y"}, dims: 2,
		vals: []float64{0, 0, 1, 1, 2, 2, 2, 0, 3, 3},
		lo:   []float64{0, 0}, hi: []float64{3, 3},
	}
}

func TestCountByHand(t *testing.T) {
	tab := handTable()
	cases := []struct {
		lo, hi []float64
		want   float64
	}{
		{[]float64{0, 0}, []float64{3, 3}, 5},     // whole domain
		{[]float64{1, 1}, []float64{2, 2}, 2},     // closed bounds keep (1,1) and (2,2)
		{[]float64{1.5, 0}, []float64{2.5, 0}, 1}, // degenerate y range hits (2,0) only
		{[]float64{0.1, 0.1}, []float64{0.9, 0.9}, 0},
		{[]float64{-5, -5}, []float64{0, 0}, 1}, // reaching outside the domain
		{[]float64{2, 0}, []float64{3, 3}, 3},   // (2,2) (2,0) (3,3)
	}
	for _, c := range cases {
		if got := tab.count(box{lo: c.lo, hi: c.hi}); got != c.want {
			t.Errorf("count(%v..%v) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestTrivialByHand(t *testing.T) {
	tab := handTable()
	// A quarter of the 3x3 domain holds a quarter of the 5 tuples.
	if got := tab.trivial(box{lo: []float64{0, 0}, hi: []float64{1.5, 1.5}}); got != 1.25 {
		t.Errorf("trivial = %v, want 1.25", got)
	}
	// Only the part inside the domain counts: [2,3]x[0,3] is a third.
	if got := tab.trivial(box{lo: []float64{2, -1}, hi: []float64{9, 9}}); math.Abs(got-5.0/3) > 1e-12 {
		t.Errorf("trivial = %v, want 5/3", got)
	}
}

func TestNAEByHand(t *testing.T) {
	// |4-5|+|0-2| = 3 against the trivial |1-5|+|4-2| = 6.
	got, err := nae([]float64{4, 0}, []float64{5, 2}, []float64{1, 4})
	if err != nil || got != 0.5 {
		t.Fatalf("nae = %v, %v; want 0.5", got, err)
	}
	if got, _ := nae([]float64{5, 2}, []float64{5, 2}, []float64{1, 4}); got != 0 {
		t.Errorf("exact estimates: nae = %v, want 0", got)
	}
	if _, err := nae([]float64{1}, []float64{1}, []float64{1}); err == nil {
		t.Error("nae with an exact trivial histogram should be undefined")
	}
	if _, err := nae(nil, nil, nil); err == nil {
		t.Error("nae of no queries should be undefined")
	}
}

func TestQueriesStayInDomainWithTheirVolume(t *testing.T) {
	tab := handTable()
	qs := tab.queries(200, 0.01, rand.New(rand.NewSource(7)))
	for _, q := range qs {
		for d := 0; d < tab.dims; d++ {
			if q.lo[d] < tab.lo[d] || q.hi[d] > tab.hi[d] {
				t.Fatalf("query %v..%v leaves the domain", q.lo, q.hi)
			}
		}
		if v := tab.overlapVolume(q) / tab.domainVolume(); math.Abs(v-0.01) > 1e-9 {
			t.Fatalf("query volume fraction %v, want 0.01", v)
		}
	}
}
