package phy

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitutil"
)

// descrambleSearch is the seed search descrambleInto replaced: try every
// nonzero seed until one reproduces the received 7-bit prefix, and return
// the bits as received when none does.
func descrambleSearch(bits []byte) []byte {
	if len(bits) < 7 {
		return bits
	}
	out := make([]byte, len(bits))
	for seed := 1; seed <= 0x7F; seed++ {
		s := bitutil.NewScrambler(byte(seed))
		match := true
		for i := 0; i < 7; i++ {
			if s.NextBit() != bits[i]&1 {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		d := bitutil.NewScrambler(byte(seed))
		for i := range bits {
			out[i] = (bits[i] & 1) ^ d.NextBit()
		}
		return out
	}
	copy(out, bits)
	return out
}

// TestDescrambleMatchesSeedSearch runs every 7-bit prefix, the all-zero
// one no seed produces included, with random tails of several lengths
// through descrambleInto and the seed search: the outputs must be equal,
// also when descrambleInto reuses a buffer holding another packet's bits.
// Inputs shorter than the prefix come back as received.
func TestDescrambleMatchesSeedSearch(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var buf []byte
	for prefix := 0; prefix < 128; prefix++ {
		for _, n := range []int{7, 8, 16, 127, 1000} {
			bits := make([]byte, n)
			for i := range bits {
				bits[i] = byte(r.Intn(2))
			}
			for i := 0; i < 7; i++ {
				bits[i] = byte(prefix>>(6-i)) & 1
			}
			want := descrambleSearch(bits)
			buf = descrambleInto(buf, bits)
			if !bytes.Equal(buf, want) {
				t.Fatalf("prefix %#02x, %d bits: descrambleInto differs from the seed search", prefix, n)
			}
		}
	}
	for n := 0; n < 7; n++ {
		bits := []byte{1, 0, 1, 1, 0, 1}[:n]
		if got := descrambleInto(buf, bits); !bytes.Equal(got, bits) {
			t.Fatalf("%d bits: got %v, want them as received", n, got)
		}
	}
}
