package fec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBits(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(2))
	}
	return b
}

// addTail appends the 6 zero tail bits that terminate the trellis.
func addTail(bits []byte) []byte {
	return append(append([]byte(nil), bits...), make([]byte, ConstraintLength-1)...)
}

func TestEncodeKnownVector(t *testing.T) {
	// IEEE 802.11 mother code: input 1 0 1 1 from state 0.
	// window(in, s): out A = parity(window & 0o133), B = parity(window & 0o171).
	got := Encode([]byte{1, 0, 1, 1}, Rate1_2)
	// Hand-computed: in=1,s=0: window=0x40: A=parity(0x40&0x5B=0x40)=1, B=parity(0x40&0x79=0x40)=1
	// s=0x20,in=0: window=0x20: A=parity(0x20&0x5B)=0? 0x5B=1011011b bit5=0 →0; B=0x79=1111001b bit5=1 →1
	// s=0x10,in=1: window=0x50: A: bits {6,4}: 0x5B has bit6=1,bit4=1 →1^1=0; B: 0x79 bit6=1,bit4=1 →0
	// s=0x28,in=1: window=0x68: bits{6,5,3}: A:0x5B bit6=1,bit5=0,bit3=1→0; B:0x79 bit6=1,bit5=1,bit3=1→1
	want := []byte{1, 1, 0, 1, 0, 0, 0, 1}
	if !bytes.Equal(got, want) {
		t.Errorf("Encode = %v, want %v", got, want)
	}
}

func TestRateFractionAndString(t *testing.T) {
	for _, c := range []struct {
		r        Rate
		num, den int
		s        string
	}{
		{Rate1_2, 1, 2, "1/2"},
		{Rate2_3, 2, 3, "2/3"},
		{Rate3_4, 3, 4, "3/4"},
		{Rate5_6, 5, 6, "5/6"},
	} {
		n, d := c.r.Fraction()
		if n != c.num || d != c.den || c.r.String() != c.s {
			t.Errorf("rate %v: got %d/%d %q", c.r, n, d, c.r.String())
		}
	}
}

func TestCodedLenMatchesRate(t *testing.T) {
	for _, r := range []Rate{Rate1_2, Rate2_3, Rate3_4, Rate5_6} {
		num, den := r.Fraction()
		// Any multiple of the period (== num at these rates... period is
		// len(pattern)): use a block of 30 data bits, divisible by 1,2,3,5.
		n := 30
		if got := CodedLen(n, r); got != n*den/num {
			t.Errorf("rate %v: CodedLen(%d) = %d, want %d", r, n, got, n*den/num)
		}
		d, err := DataLen(CodedLen(n, r), r)
		if err != nil || d != n {
			t.Errorf("rate %v: DataLen round trip = %d, %v", r, d, err)
		}
	}
	if _, err := DataLen(7, Rate1_2); err == nil {
		t.Error("DataLen(7, 1/2) should error")
	}
}

func TestEncodeLenMatchesCodedLen(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, rate := range []Rate{Rate1_2, Rate2_3, Rate3_4, Rate5_6} {
		for _, n := range []int{30, 60, 120, 600} {
			got := Encode(randBits(r, n), rate)
			if len(got) != CodedLen(n, rate) {
				t.Errorf("rate %v n=%d: encoded %d bits, CodedLen says %d", rate, n, len(got), CodedLen(n, rate))
			}
		}
	}
}

func TestViterbiNoiselessAllRates(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(2))
		v := NewViterbi()
		for _, rate := range []Rate{Rate1_2, Rate2_3, Rate3_4, Rate5_6} {
			data := randBits(r, 300)
			padded := addTail(data)
			coded := Encode(padded, rate)
			llr := HardToLLR(nil, coded)
			depunct, err := Depuncture(llr, len(padded), rate)
			if err != nil {
				t.Fatalf("rate %v: %v", rate, err)
			}
			decoded, err := v.DecodeSoft(depunct, true)
			if err != nil {
				t.Fatalf("rate %v: %v", rate, err)
			}
			if !bytes.Equal(decoded[:len(data)], data) {
				t.Errorf("rate %v: noiseless decode failed", rate)
			}
		}
	})
}

func TestViterbiHardDecode(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		v := NewViterbi()
		data := randBits(r, 200)
		padded := addTail(data)
		coded := Encode(padded, Rate1_2)
		decoded, err := v.DecodeHard(coded, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(decoded[:len(data)], data) {
			t.Error("hard decode failed on clean input")
		}
	})
}

func TestViterbiCorrectsErrors(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		// The K=7 code has free distance 10 at rate 1/2: any pattern of up to 2
		// well-separated bit errors must be corrected.
		r := rand.New(rand.NewSource(4))
		v := NewViterbi()
		for trial := 0; trial < 25; trial++ {
			data := randBits(r, 150)
			padded := addTail(data)
			coded := Encode(padded, Rate1_2)
			// Flip 4 coded bits spaced far apart.
			for k := 0; k < 4; k++ {
				pos := k*(len(coded)/4) + r.Intn(len(coded)/8)
				coded[pos] ^= 1
			}
			decoded, err := v.DecodeHard(coded, true)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(decoded[:len(data)], data) {
				t.Fatalf("trial %d: failed to correct spaced errors", trial)
			}
		}
	})
}

func TestViterbiSoftBeatsHardWithConfidence(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		// A flipped bit with low confidence should be forgiven by the soft
		// decoder even when adjacent to other damage.
		r := rand.New(rand.NewSource(5))
		v := NewViterbi()
		data := randBits(r, 100)
		padded := addTail(data)
		coded := Encode(padded, Rate1_2)
		llr := HardToLLR(nil, coded)
		// Inflict a burst of 6 flips but mark them as very low confidence.
		for i := 40; i < 46; i++ {
			llr[i] = -llr[i] * 0.01
		}
		decoded, err := v.DecodeSoft(llr, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(decoded[:len(data)], data) {
			t.Error("soft decoder failed on low-confidence burst")
		}
	})
}

func TestViterbiUnterminated(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(6))
		v := NewViterbi()
		data := randBits(r, 120)
		coded := Encode(data, Rate1_2)
		decoded, err := v.DecodeHard(coded, false)
		if err != nil {
			t.Fatal(err)
		}
		// Without termination, only the bits older than the decision depth are
		// guaranteed; check all but the last 3·K.
		safe := len(data) - 3*ConstraintLength
		if !bytes.Equal(decoded[:safe], data[:safe]) {
			t.Error("unterminated decode failed in the safe region")
		}
	})
}

func TestViterbiEdgeCases(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		v := NewViterbi()
		if got, err := v.DecodeSoft(nil, true); err != nil || got != nil {
			t.Errorf("empty decode = %v, %v", got, err)
		}
		if _, err := v.DecodeSoft(make([]float64, 3), true); err == nil {
			t.Error("odd-length soft input should error")
		}
		if _, err := Depuncture(make([]float64, 5), 4, Rate1_2); err == nil {
			t.Error("wrong-length depuncture should error")
		}
	})
}

func TestEncodeDecodePropertyAllRates(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(7))
		v := NewViterbi()
		prop := func(seed int64, rateSel uint8) bool {
			rate := []Rate{Rate1_2, Rate2_3, Rate3_4, Rate5_6}[rateSel%4]
			n := 30 * (1 + int(seed&3))
			data := randBits(r, n)
			padded := addTail(data)
			coded := Encode(padded, rate)
			llr := HardToLLR(nil, coded)
			dep, err := Depuncture(llr, len(padded), rate)
			if err != nil {
				return false
			}
			dec, err := v.DecodeSoft(dep, true)
			if err != nil {
				return false
			}
			return bytes.Equal(dec[:n], data)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	})
}

func BenchmarkViterbiRate12_1000bits(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	v := NewViterbi()
	data := addTail(randBits(r, 1000))
	coded := Encode(data, Rate1_2)
	llr := HardToLLR(nil, coded)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)) / 8)
	for i := 0; i < b.N; i++ {
		if _, err := v.DecodeSoft(llr, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode1000bits(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	data := randBits(r, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(data, Rate3_4)
	}
}

// referenceDecode is the straightforward 128-edge ACS sweep the butterfly
// kernel in DecodeSoftInto replaced. It is kept as a test oracle: the two
// schedules must produce bit-identical outputs for any soft input,
// including erasures (llr 0) and exact metric ties.
func referenceDecode(llr []float64, terminated bool) []byte {
	const unreachable = math.MaxFloat64 / 4
	steps := len(llr) / 2
	metric := make([]float64, numStates)
	next := make([]float64, numStates)
	survivors := make([][numStates]uint8, steps)
	for s := range metric {
		metric[s] = -unreachable
	}
	metric[0] = 0
	for t := 0; t < steps; t++ {
		la, lb := llr[2*t], llr[2*t+1]
		for s := range next {
			next[s] = -unreachable
		}
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if m <= -unreachable {
				continue
			}
			for in := 0; in < 2; in++ {
				o := outputs[s][in]
				bm := m
				if o&1 == 0 {
					bm += la
				} else {
					bm -= la
				}
				if o&2 == 0 {
					bm += lb
				} else {
					bm -= lb
				}
				ns := nextState[s][in]
				if bm > next[ns] {
					next[ns] = bm
					survivors[t][ns] = uint8(s & 1)
				}
			}
		}
		metric, next = next, metric
	}
	state := 0
	if !terminated {
		best := -unreachable * 2
		for s, m := range metric {
			if m > best {
				best, state = m, s
			}
		}
	}
	bits := make([]byte, steps)
	for t := steps - 1; t >= 0; t-- {
		bits[t] = uint8(state >> (ConstraintLength - 2))
		state = ((state << 1) & (numStates - 1)) | int(survivors[t][state])
	}
	return bits
}

func TestViterbiButterflyMatchesReferenceSweep(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(77))
		v := NewViterbi()
		for trial := 0; trial < 200; trial++ {
			steps := 1 + r.Intn(400)
			llr := make([]float64, 2*steps)
			for i := range llr {
				switch r.Intn(5) {
				case 0:
					llr[i] = 0 // erasure
				case 1:
					// Small integer LLRs force exact metric ties, exercising
					// the prefer-earliest-predecessor rule.
					llr[i] = float64(r.Intn(5) - 2)
				default:
					llr[i] = r.NormFloat64()
				}
			}
			terminated := trial%2 == 0
			got, err := v.DecodeSoft(llr, terminated)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceDecode(llr, terminated)
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d (steps=%d terminated=%v): butterfly decode differs from reference sweep", trial, steps, terminated)
			}
		}
	})
}

func TestViterbiReserveAvoidsDecodeAllocs(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(78))
		data := addTail(randBits(r, 4000))
		coded := Encode(data, Rate1_2)
		llr := HardToLLR(nil, coded)
		v := NewViterbi()
		v.Reserve(len(data))
		dst := make([]byte, len(data))
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := v.DecodeSoftInto(dst, llr, true); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("DecodeSoftInto after Reserve allocated %.0f times per run, want 0", allocs)
		}
	})
}

// TestViterbiNonFiniteLLRs pins the defined outcome for NaN and ±Inf
// soft inputs: NaN decodes as an erasure and ±Inf as ±full scale, which
// here is the largest finite |llr| (4), and neither moves the scale.
func TestViterbiNonFiniteLLRs(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(79))
		v := NewViterbi()
		for trial := 0; trial < 20; trial++ {
			data := addTail(randBits(r, 200))
			llr := HardToLLR(nil, Encode(data, Rate1_2))
			for i := range llr {
				llr[i] *= float64(1 + r.Intn(4))
			}
			llr[0] = math.Copysign(4, llr[0]) // the finite peak is 4
			bad := append([]float64(nil), llr...)
			fixed := append([]float64(nil), llr...)
			for k := 0; k < 30; k++ {
				i := 1 + r.Intn(len(llr)-1)
				switch r.Intn(3) {
				case 0:
					bad[i], fixed[i] = math.NaN(), 0
				case 1:
					bad[i], fixed[i] = math.Inf(1), 4
				default:
					bad[i], fixed[i] = math.Inf(-1), -4
				}
			}
			terminated := trial%2 == 0
			got, err := v.DecodeSoft(bad, terminated)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceDecode(fixed, terminated); !bytes.Equal(got, want) {
				t.Fatalf("trial %d: decode with NaN/±Inf differs from decode with the values replaced by 0/±4", trial)
			}
		}

		// With no finite nonzero value at all the scale is arbitrary, so the
		// result must still be the one the replaced input gives.
		bad := []float64{math.NaN(), math.Inf(1), 0, math.Inf(-1), math.NaN(), math.NaN()}
		fixed := []float64{0, 1, 0, -1, 0, 0}
		got, err := v.DecodeSoft(bad, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceDecode(fixed, false); !bytes.Equal(got, want) {
			t.Fatalf("all non-finite input decoded to %v, want %v", got, want)
		}
	})
}

// TestViterbiMaxPSDURange decodes the trellis of the largest 802.11n PSDU
// (65,535 octets: 16 SERVICE bits, the payload and 6 tail bits, 524,302
// steps) from full-scale hard LLRs. Every LLR quantises to ±2^24, so the
// winning path metric grows by up to 2^25 a step and wraps around int32
// thousands of times. The noiseless frame must decode to the sent bits;
// with one coded bit in 12 flipped, and full-scale ties everywhere, the
// decode must equal the float64 reference sweep at both terminations.
func TestViterbiMaxPSDURange(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(80))
		data := make([]byte, 16+8*65535+ConstraintLength-1)
		for i := 16; i < 16+8*65535; i++ {
			data[i] = byte(r.Intn(2))
		}
		coded := Encode(data, Rate1_2)
		v := NewViterbi()
		got, err := v.DecodeHard(coded, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("noiseless decode of the largest PSDU trellis is not bit-exact")
		}
		for i := range coded {
			if r.Intn(12) == 0 {
				coded[i] ^= 1
			}
		}
		llr := HardToLLR(nil, coded)
		for _, terminated := range []bool{true, false} {
			got, err := v.DecodeSoft(llr, terminated)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, referenceDecode(llr, terminated)) {
				t.Fatalf("terminated=%v: decode of the largest PSDU trellis with flipped bits differs from the reference sweep", terminated)
			}
		}
	})
}

// TestViterbiWideRangeMatchesReference puts one LLR of about 10^6 into
// frames of small-integer confidences (1–3, with flips and erasures): the
// small values must survive quantisation against that peak with their
// exact ratios, ties included, so the decode equals the float64 reference
// sweep.
func TestViterbiWideRangeMatchesReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(81))
		v := NewViterbi()
		for trial := 0; trial < 50; trial++ {
			data := addTail(randBits(r, 100+r.Intn(300)))
			llr := HardToLLR(nil, Encode(data, Rate1_2))
			for i := range llr {
				llr[i] *= float64(1 + r.Intn(3))
				switch r.Intn(20) {
				case 0:
					llr[i] = -llr[i] // a confident error
				case 1:
					llr[i] = 0
				}
			}
			llr[r.Intn(len(llr))] *= 1e6
			terminated := trial%2 == 0
			got, err := v.DecodeSoft(llr, terminated)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceDecode(llr, terminated); !bytes.Equal(got, want) {
				t.Fatalf("trial %d: decode with a 10^6 dynamic range differs from the reference sweep", trial)
			}
		}
	})
}

// TestViterbiAWGNMatchesReference checks the integer decoder against the
// float64 reference sweep on realistic soft input: BPSK-over-AWGN LLRs
// (2y/σ²) at every coding rate, depunctured, from −1 to 5 dB Es/N0 — the
// waterfall, where path metrics run close and a coarse quantiser would
// flip decisions. Every frame must decode identically.
func TestViterbiAWGNMatchesReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(82))
		v := NewViterbi()
		frames := 0
		for _, rate := range []Rate{Rate1_2, Rate2_3, Rate3_4, Rate5_6} {
			for snrDB := -1; snrDB <= 5; snrDB++ {
				for f := 0; f < 64; f++ {
					soft := awgnFrame(r, 200+ConstraintLength-1, rate, float64(snrDB))
					terminated := f%2 == 0
					got, err := v.DecodeSoft(soft, terminated)
					if err != nil {
						t.Fatal(err)
					}
					if want := referenceDecode(soft, terminated); !bytes.Equal(got, want) {
						t.Errorf("rate %v, %d dB, frame %d: decode differs from the reference sweep", rate, snrDB, f)
					}
					frames++
				}
			}
		}
		if frames != 4*7*64 {
			t.Fatalf("corpus ran %d frames, want %d", frames, 4*7*64)
		}
	})
}

// compareMotherReencode is the receiver's previous pre-FEC comparison, kept
// as the oracle for CompareMother: encode the decision into a fresh slice,
// then compare it with the hard decisions of the non-zero LLRs.
func compareMotherReencode(decoded []byte, dep []float64) (errs, bits int) {
	coded := Encode(decoded, Rate1_2)
	n := min(len(coded), len(dep))
	for i := 0; i < n; i++ {
		llr := dep[i]
		if llr == 0 {
			continue
		}
		hard := byte(0)
		if llr < 0 {
			hard = 1
		}
		bits++
		if hard != coded[i] {
			errs++
		}
	}
	return errs, bits
}

// TestCompareMotherMatchesReencode pins CompareMother to the re-encoding
// comparison it replaced, on depunctured AWGN frames at every rate with
// their erasures, decoded and with random decisions, with the LLR stream
// longer than, as long as and shorter than (odd lengths too) the coded
// decision, and with NaN and ±Inf values; and it must not allocate.
func TestCompareMotherMatchesReencode(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	v := NewViterbi()
	for trial := 0; trial < 200; trial++ {
		rate := []Rate{Rate1_2, Rate2_3, Rate3_4, Rate5_6}[trial%4]
		steps := 60 + r.Intn(400)
		dep := awgnFrame(r, steps, rate, float64(r.Intn(8)-1))
		for k := r.Intn(4); k > 0; k-- {
			dep[r.Intn(len(dep))] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
		}
		decoded, err := v.DecodeSoft(dep, true)
		if err != nil {
			t.Fatal(err)
		}
		if trial%5 == 0 {
			decoded = randBits(r, steps)
		}
		for _, n := range []int{len(dep), len(dep) - 1 - r.Intn(100), 2 * (steps - 1 - r.Intn(50))} {
			for _, d := range [][]byte{decoded, decoded[:n/2]} {
				errs, bits := CompareMother(d, dep[:n])
				wantErrs, wantBits := compareMotherReencode(d, dep[:n])
				if errs != wantErrs || bits != wantBits {
					t.Fatalf("trial %d, %d decisions, %d LLRs: CompareMother = %d/%d, re-encoding gives %d/%d",
						trial, len(d), n, errs, bits, wantErrs, wantBits)
				}
			}
		}
	}
	dep := awgnFrame(r, 12022, Rate5_6, 3)
	decoded, err := v.DecodeSoft(dep, true)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { CompareMother(decoded, dep) }); allocs != 0 {
		t.Fatalf("CompareMother allocated %.0f times per call, want 0", allocs)
	}
}
