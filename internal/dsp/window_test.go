package dsp

import (
	"math"
	"testing"
)

func TestWindows(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(int) []float64
		ends float64
	}{
		{"Hamming", Hamming, 0.08},
		{"Hann", Hann, 0},
		{"Blackman", Blackman, 0},
	} {
		w := tc.fn(9)
		if len(w) != 9 {
			t.Errorf("%s: length %d", tc.name, len(w))
		}
		if math.Abs(w[0]-tc.ends) > 1e-12 || math.Abs(w[8]-tc.ends) > 1e-12 {
			t.Errorf("%s: endpoints %g, %g; want %g", tc.name, w[0], w[8], tc.ends)
		}
		if math.Abs(w[4]-1) > 0.01 {
			t.Errorf("%s: midpoint %g, want ≈ 1", tc.name, w[4])
		}
		// Symmetry.
		for i := 0; i < 4; i++ {
			if math.Abs(w[i]-w[8-i]) > 1e-12 {
				t.Errorf("%s: asymmetric at %d", tc.name, i)
			}
		}
		one := tc.fn(1)
		if len(one) != 1 || one[0] != 1 {
			t.Errorf("%s(1) = %v, want [1]", tc.name, one)
		}
	}
	r := Rectangular(4)
	for _, v := range r {
		if v != 1 {
			t.Errorf("Rectangular = %v", r)
		}
	}
}

func TestApplyWindow(t *testing.T) {
	x := []complex128{2, 2i}
	ApplyWindow(x, []float64{0.5, 2})
	if x[0] != 1 || x[1] != 4i {
		t.Errorf("ApplyWindow: got %v", x)
	}
}
