package main

import (
	"testing"
	"time"
)

func TestQuietP50ByHand(t *testing.T) {
	msec := func(xs ...int) []time.Duration {
		ds := make([]time.Duration, len(xs))
		for i, x := range xs {
			ds[i] = time.Duration(x) * time.Millisecond
		}
		return ds
	}
	// Block p50s: cycle 0 reads 2, 10, 7 and cycle 1 reads 5, 4, 6; its
	// tenth call starts no whole block. The lowest per position are 2, 4
	// and 6, and their median is 4.
	cycles := [][]time.Duration{
		msec(1, 2, 3, 10, 10, 10, 7, 7, 7),
		msec(5, 5, 5, 4, 4, 4, 6, 6, 6, 9),
	}
	if got := quietP50(cycles, 3); got != 4 {
		t.Errorf("quietP50 = %v ms, want 4", got)
	}
	if got := quietP50(nil, 3); got != 0 {
		t.Errorf("quietP50 of no cycles = %v, want 0", got)
	}
}
