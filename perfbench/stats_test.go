package main

import "testing"

func TestWeightedQuantile(t *testing.T) {
	xs := []float64{5, 1, 3}
	ws := []float64{1, 1, 8}
	for _, tc := range []struct{ q, want float64 }{{0.05, 1}, {0.5, 3}, {0.9, 3}, {0.95, 5}, {1, 5}} {
		if got := weightedQuantile(xs, ws, tc.q); got != tc.want {
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}
}
