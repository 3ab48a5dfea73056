package mimo

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cmatrix"
	"repro/internal/modem"
)

func randBits(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(2))
	}
	return b
}

func TestStreamParserRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, nbpscs := range []int{1, 2, 4, 6} {
		for nss := 1; nss <= 4; nss++ {
			p, err := NewStreamParser(nss, nbpscs)
			if err != nil {
				t.Fatal(err)
			}
			bits := randBits(r, p.BlockBits()*50)
			streams, err := p.Parse(bits)
			if err != nil {
				t.Fatal(err)
			}
			if len(streams) != nss {
				t.Fatalf("%d streams", len(streams))
			}
			for i := 1; i < nss; i++ {
				if len(streams[i]) != len(streams[0]) {
					t.Fatal("unequal stream lengths")
				}
			}
			merged, err := p.Merge(streams)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged, bits) {
				t.Fatalf("nss=%d nbpscs=%d: round trip failed", nss, nbpscs)
			}
		}
	}
}

func TestStreamParserKnownPattern(t *testing.T) {
	// N_SS=2, N_BPSCS=4 → s=2: bits 0,1 to stream 0; 2,3 to stream 1; ...
	p, _ := NewStreamParser(2, 4)
	bits := []byte{0, 1, 2, 3, 4, 5, 6, 7}
	streams, err := p.Parse(bits)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streams[0], []byte{0, 1, 4, 5}) || !bytes.Equal(streams[1], []byte{2, 3, 6, 7}) {
		t.Errorf("parse = %v", streams)
	}
}

func TestStreamParserValidation(t *testing.T) {
	if _, err := NewStreamParser(0, 2); err == nil {
		t.Error("nss=0 should fail")
	}
	if _, err := NewStreamParser(2, 3); err == nil {
		t.Error("nbpscs=3 should fail")
	}
	p, _ := NewStreamParser(2, 2)
	if _, err := p.Parse(make([]byte, 3)); err == nil {
		t.Error("non-multiple parse should fail")
	}
	if _, err := p.Merge([][]byte{{0}}); err == nil {
		t.Error("wrong stream count should fail")
	}
	if _, err := p.Merge([][]byte{{0, 1}, {0}}); err == nil {
		t.Error("ragged merge should fail")
	}
	if _, err := p.MergeLLR([][]float64{{0, 1}, {0}}); err == nil {
		t.Error("ragged MergeLLR should fail")
	}
}

func TestMergeLLRMatchesMerge(t *testing.T) {
	p, _ := NewStreamParser(3, 6)
	r := rand.New(rand.NewSource(2))
	bits := randBits(r, p.BlockBits()*20)
	streams, _ := p.Parse(bits)
	llrStreams := make([][]float64, len(streams))
	for i, s := range streams {
		llrStreams[i] = make([]float64, len(s))
		for j, b := range s {
			llrStreams[i][j] = float64(b)
		}
	}
	merged, _ := p.Merge(streams)
	mergedLLR, err := p.MergeLLR(llrStreams)
	if err != nil {
		t.Fatal(err)
	}
	for i := range merged {
		if float64(merged[i]) != mergedLLR[i] {
			t.Fatal("MergeLLR ordering differs from Merge")
		}
	}
}

func randChannel(r *rand.Rand, nrx, nss int) *cmatrix.Matrix {
	h := cmatrix.New(nrx, nss)
	for i := range h.Data {
		h.Data[i] = complex(r.NormFloat64(), r.NormFloat64()) * complex(0.7071, 0)
	}
	return h
}

// runDetector pushes nSym random symbols per stream through H plus noise
// and counts LLR sign errors.
func runDetector(t *testing.T, d Detector, scheme modem.Scheme, nrx, nss int, snrDB float64, nSym int, seed int64) (bitErrs, totalBits int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	mapper := modem.NewMapper(scheme)
	nbpsc := scheme.BitsPerSymbol()
	h := []*cmatrix.Matrix{randChannel(r, nrx, nss)}
	// Signal power per RX antenna ≈ nss (unit power per stream).
	noiseVar := float64(nss) / math.Pow(10, snrDB/10)
	if err := d.Prepare(h, noiseVar); err != nil {
		t.Fatal(err)
	}
	llr := make([][]float64, nss)
	for s := 0; s < nSym; s++ {
		bits := make([][]byte, nss)
		x := make([]complex128, nss)
		for i := 0; i < nss; i++ {
			bits[i] = randBits(r, nbpsc)
			x[i] = mapper.MapOne(bits[i])
		}
		y := h[0].MulVec(x)
		for i := range y {
			y[i] += complex(r.NormFloat64(), r.NormFloat64()) * complex(math.Sqrt(noiseVar/2), 0)
		}
		for i := range llr {
			llr[i] = llr[i][:0]
		}
		var err error
		llr, err = d.Detect(llr, 0, y)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nss; i++ {
			for b := 0; b < nbpsc; b++ {
				hard := byte(0)
				if llr[i][b] < 0 {
					hard = 1
				}
				if hard != bits[i][b] {
					bitErrs++
				}
				totalBits++
			}
		}
	}
	return bitErrs, totalBits
}

func TestDetectorsNoiselessPerfect(t *testing.T) {
	for _, name := range []string{"zf", "mmse", "sic", "ml"} {
		for _, scheme := range []modem.Scheme{modem.QPSK, modem.QAM16} {
			d, err := NewDetector(name, scheme, 2)
			if err != nil {
				t.Fatal(err)
			}
			errs, total := runDetector(t, d, scheme, 2, 2, 60, 200, 3)
			if errs != 0 {
				t.Errorf("%s/%v: %d/%d errors at 60 dB", name, scheme, errs, total)
			}
		}
	}
}

func TestDetectorOrderingAtModerateSNR(t *testing.T) {
	// At moderate SNR over random channels: ML ≤ MMSE ≤ ZF error counts
	// (allowing small statistical slack).
	results := map[string]int{}
	for _, name := range []string{"zf", "mmse", "sic", "ml"} {
		d, err := NewDetector(name, modem.QPSK, 2)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		errs := 0
		for trial := 0; trial < 60; trial++ {
			e, n := runDetector(t, d, modem.QPSK, 2, 2, 12, 50, int64(100+trial))
			errs += e
			total += n
		}
		results[name] = errs
		if errs == 0 {
			t.Logf("%s: zero errors (unexpectedly clean)", name)
		}
	}
	if !(results["ml"] <= results["mmse"]+results["mmse"]/5+5) {
		t.Errorf("ML (%d) should not be much worse than MMSE (%d)", results["ml"], results["mmse"])
	}
	if !(results["mmse"] <= results["zf"]+results["zf"]/5+5) {
		t.Errorf("MMSE (%d) should not be much worse than ZF (%d)", results["mmse"], results["zf"])
	}
	t.Logf("errors: zf=%d mmse=%d ml=%d", results["zf"], results["mmse"], results["ml"])
}

func TestMoreRXAntennasHelpZF(t *testing.T) {
	d := NewZF(modem.QPSK, 2)
	e2, n2 := 0, 0
	e4, n4 := 0, 0
	for trial := 0; trial < 40; trial++ {
		e, n := runDetector(t, d, modem.QPSK, 2, 2, 8, 50, int64(200+trial))
		e2 += e
		n2 += n
		e, n = runDetector(t, d, modem.QPSK, 4, 2, 8, 50, int64(200+trial))
		e4 += e
		n4 += n
	}
	if n2 == 0 || n4 == 0 {
		t.Fatal("no bits")
	}
	if float64(e4)/float64(n4) >= float64(e2)/float64(n2) {
		t.Errorf("4 RX (%d/%d) should beat 2 RX (%d/%d)", e4, n4, e2, n2)
	}
}

func TestEqualizeRecoverSymbols(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	mapper := modem.NewMapper(modem.QAM16)
	for _, name := range []string{"zf", "mmse", "sic", "ml"} {
		d, err := NewDetector(name, modem.QAM16, 2)
		if err != nil {
			t.Fatal(err)
		}
		h := []*cmatrix.Matrix{randChannel(r, 2, 2)}
		if err := d.Prepare(h, 1e-9); err != nil {
			t.Fatal(err)
		}
		x := []complex128{mapper.MapOne([]byte{1, 0, 1, 1}), mapper.MapOne([]byte{0, 0, 1, 0})}
		y := h[0].MulVec(x)
		got := make([]complex128, 2)
		if err := d.Equalize(got, 0, y); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(got[i]-x[i]) > 1e-3 {
				t.Errorf("%s: stream %d: got %v want %v", name, i, got[i], x[i])
			}
		}
	}
}

func TestDetectorErrorsBeforePrepare(t *testing.T) {
	for _, name := range []string{"zf", "mmse", "sic", "ml"} {
		d, err := NewDetector(name, modem.QPSK, 2)
		if err != nil {
			t.Fatal(err)
		}
		llr := make([][]float64, 2)
		if _, err := d.Detect(llr, 0, make([]complex128, 2)); err == nil {
			t.Errorf("%s: Detect before Prepare should error", name)
		}
		if err := d.Equalize(make([]complex128, 2), 0, make([]complex128, 2)); err == nil {
			t.Errorf("%s: Equalize before Prepare should error", name)
		}
	}
}

func TestDetectorValidation(t *testing.T) {
	// Rank-deficient for ZF: more streams than RX antennas.
	d := NewZF(modem.QPSK, 2)
	h := []*cmatrix.Matrix{cmatrix.New(1, 2)}
	if err := d.Prepare(h, 0.1); err == nil {
		t.Error("1 RX / 2 SS should fail linear Prepare")
	}
	// Wrong column count.
	h2 := []*cmatrix.Matrix{cmatrix.New(2, 3)}
	if err := d.Prepare(h2, 0.1); err == nil {
		t.Error("3-column channel for 2 streams should fail")
	}
	// ML refuses giant joint constellations.
	if _, err := NewML(modem.QAM64, 3); err == nil {
		t.Error("ML 3x64QAM should be rejected")
	}
	if _, err := NewDetector("bogus", modem.QPSK, 2); err == nil {
		t.Error("unknown detector name should fail")
	}
}

func TestMLHandlesRankDeficiency(t *testing.T) {
	// ML works even with 1 RX antenna for 2 streams (no matrix inversion).
	d, err := NewML(modem.QPSK, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := []*cmatrix.Matrix{cmatrix.FromRows([][]complex128{{1, 0.3}})}
	if err := d.Prepare(h, 0.01); err != nil {
		t.Fatal(err)
	}
	llr := make([][]float64, 2)
	if _, err := d.Detect(llr, 0, []complex128{0.5}); err != nil {
		t.Fatal(err)
	}
}

func TestParserPropertyMergeInverse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	prop := func(nssSel, nbpscSel uint8, blocks uint8) bool {
		nss := 1 + int(nssSel)%4
		nbpscs := []int{1, 2, 4, 6}[nbpscSel%4]
		p, err := NewStreamParser(nss, nbpscs)
		if err != nil {
			return false
		}
		n := p.BlockBits() * (1 + int(blocks)%20)
		bits := randBits(r, n)
		streams, err := p.Parse(bits)
		if err != nil {
			return false
		}
		merged, err := p.Merge(streams)
		return err == nil && bytes.Equal(merged, bits)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkZFDetect2x2QAM64(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	d := NewZF(modem.QAM64, 2)
	h := []*cmatrix.Matrix{randChannel(r, 2, 2)}
	if err := d.Prepare(h, 0.01); err != nil {
		b.Fatal(err)
	}
	y := []complex128{complex(r.NormFloat64(), r.NormFloat64()), complex(r.NormFloat64(), r.NormFloat64())}
	llr := make([][]float64, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		llr[0], llr[1] = llr[0][:0], llr[1][:0]
		if _, err := d.Detect(llr, 0, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLDetect2x2QPSK(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	d, err := NewML(modem.QPSK, 2)
	if err != nil {
		b.Fatal(err)
	}
	h := []*cmatrix.Matrix{randChannel(r, 2, 2)}
	if err := d.Prepare(h, 0.01); err != nil {
		b.Fatal(err)
	}
	y := []complex128{complex(r.NormFloat64(), r.NormFloat64()), complex(r.NormFloat64(), r.NormFloat64())}
	llr := make([][]float64, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		llr[0], llr[1] = llr[0][:0], llr[1][:0]
		if _, err := d.Detect(llr, 0, y); err != nil {
			b.Fatal(err)
		}
	}
}

// randChannels builds nk random nrx×nss channel matrices.
func randChannels(r *rand.Rand, nk, nrx, nss int) []*cmatrix.Matrix {
	h := make([]*cmatrix.Matrix, nk)
	for k := range h {
		h[k] = randChannel(r, nrx, nss)
	}
	return h
}

// Every detector family implements the batch kernel: the receiver's batched
// data phase has no per-symbol fallback.
var (
	_ BatchDetector = (*linearDetector)(nil)
	_ BatchDetector = (*sicDetector)(nil)
	_ BatchDetector = (*mlDetector)(nil)
)

// TestDetectToMatchesDetect pins the batch-path contract: for every detector
// family, DetectTo with per-worker scratch writes exactly the LLR values
// Detect appends, in stream-major order.
func TestDetectToMatchesDetect(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, name := range []string{"zf", "mmse", "sic", "ml"} {
		for _, scheme := range []modem.Scheme{modem.BPSK, modem.QPSK, modem.QAM16} {
			for nss := 1; nss <= 2; nss++ {
				det, err := NewDetector(name, scheme, nss)
				if err != nil {
					t.Fatal(err)
				}
				nrx := nss + 1
				h := randChannels(r, 8, nrx, nss)
				if err := det.Prepare(h, 0.05); err != nil {
					t.Fatal(err)
				}
				nb := det.BitsPerStream()
				sc := det.NewScratch()
				out := make([]float64, nss*nb)
				llr := make([][]float64, nss)
				y := make([]complex128, nrx)
				for k := range h {
					for i := range y {
						y[i] = complex(r.NormFloat64(), r.NormFloat64())
					}
					for i := range llr {
						llr[i] = llr[i][:0]
					}
					if _, err := det.Detect(llr, k, y); err != nil {
						t.Fatal(err)
					}
					if err := det.DetectTo(sc, out, k, y); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < nss; i++ {
						for b := 0; b < nb; b++ {
							if got, want := out[i*nb+b], llr[i][b]; got != want {
								t.Fatalf("%s/%v nss=%d k=%d stream=%d bit=%d: DetectTo %v != Detect %v",
									name, scheme, nss, k, i, b, got, want)
							}
						}
					}
				}
			}
		}
	}
}
