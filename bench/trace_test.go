package main

import (
	"reflect"
	"testing"
)

func TestSelfNanos(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{
			name: "nested",
			spans: []span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 10, End: 40},
				{ID: 3, Parent: 2, Start: 20, End: 30},
				{ID: 4, Parent: 1, Start: 50, End: 70},
			},
			want: []int64{50, 20, 10, 20},
		},
		{
			// The children cover [10,70]: 60, not the 85 their
			// durations sum to.
			name: "overlapping parallel children",
			spans: []span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 30, End: 70},
				{ID: 3, Parent: 1, Start: 10, End: 50},
				{ID: 4, Parent: 1, Start: 60, End: 65},
			},
			want: []int64{40, 40, 40, 5},
		},
		{
			name: "child outlives its parent",
			spans: []span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 80, End: 150},
			},
			want: []int64{80, 70},
		},
	}
	for _, c := range cases {
		if got := selfNanos(c.spans); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSumSpans(t *testing.T) {
	sums := sumSpans([]span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, QueryID: 6, Name: "query", Start: 0, End: 60},
		{ID: 3, Parent: 2, QueryID: 6, Name: "rcfile.scan:lineitem", Start: 5, End: 35},
		{ID: 4, Parent: 2, QueryID: 6, Name: "relal.scan:nation", Start: 40, End: 45},
		{ID: 5, Name: "fs.sync", Start: 10, End: 20},
	})
	if sums.querySelf != 25 || sums.scanByLayer["rcfile"] != 30 || sums.scanByLayer["relal"] != 5 {
		t.Errorf("got query self %d, scans %v", sums.querySelf, sums.scanByLayer)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q3 != 5.75 {
		t.Errorf("quartiles %v, %v, want 1.25, 5.75", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v, want 2.75, 8.25", q1, q3)
	}
}
