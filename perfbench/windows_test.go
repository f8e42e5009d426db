package main

import (
	"slices"
	"testing"
)

func TestCalmKeepsUnstolenSegmentsOrTheLeastStolenQuarter(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []bool
	}{
		{[]float64{0, 0.01, 0.2, 0.05}, []bool{true, true, false, true}},
		{[]float64{0.3, 0.1, 0.2, 0.01, 0.4, 0.06}, []bool{false, false, false, true, false, true}},
		{[]float64{0.3, 0.1, 0.2, 0.4, 0.06}, []bool{false, true, false, false, true}},
		{[]float64{0.2, 0.07, 0.3}, []bool{false, true, false}},
		{[]float64{0.5}, []bool{true}},
	} {
		if got := calm(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("calm(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}
