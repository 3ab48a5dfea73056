package cmatrix

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

func TestIdentityAndAccess(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Errorf("I[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
	m.Set(1, 2, 5i)
	if m.At(1, 2) != 5i {
		t.Error("Set/At mismatch")
	}
}

func TestFromRowsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows should panic")
		}
	}()
	FromRows([][]complex128{{1, 2}, {3}})
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]complex128{{19, 22}, {43, 50}})
	if !ApproxEqual(got, want, 1e-12) {
		t.Errorf("Mul:\n%v\nwant\n%v", got, want)
	}
}

func TestMulShapes(t *testing.T) {
	a := randMatrix(rand.New(rand.NewSource(1)), 2, 3)
	b := randMatrix(rand.New(rand.NewSource(2)), 3, 4)
	if got := Mul(a, b); got.Rows != 2 || got.Cols != 4 {
		t.Errorf("shape %dx%d", got.Rows, got.Cols)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched Mul should panic")
		}
	}()
	Mul(a, a)
}

func TestMulVecAndInto(t *testing.T) {
	m := FromRows([][]complex128{{1, 1i}, {2, 0}})
	x := []complex128{1, 1}
	got := m.MulVec(x)
	if got[0] != 1+1i || got[1] != 2 {
		t.Errorf("MulVec = %v", got)
	}
	dst := make([]complex128, 2)
	m.MulVecInto(dst, x)
	if dst[0] != got[0] || dst[1] != got[1] {
		t.Errorf("MulVecInto = %v, want %v", dst, got)
	}
}

func TestHermitianTranspose(t *testing.T) {
	m := FromRows([][]complex128{{1 + 2i, 3}, {4i, 5}})
	h := m.Hermitian()
	if h.At(0, 0) != 1-2i || h.At(0, 1) != -4i || h.At(1, 0) != 3 || h.At(1, 1) != 5 {
		t.Errorf("Hermitian:\n%v", h)
	}
	tr := m.Transpose()
	if tr.At(0, 1) != 4i || tr.At(1, 0) != 3 {
		t.Errorf("Transpose:\n%v", tr)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}})
	b := FromRows([][]complex128{{10, 20}})
	if got := Add(a, b); got.At(0, 1) != 22 {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a); got.At(0, 0) != 9 {
		t.Errorf("Sub = %v", got)
	}
	c := a.Clone()
	c.ScaleInPlace(2i)
	if c.At(0, 0) != 2i || a.At(0, 0) != 1 {
		t.Error("ScaleInPlace or Clone aliasing broken")
	}
}

func TestAddScaledIdentity(t *testing.T) {
	m := Identity(2)
	m.AddScaledIdentity(3)
	if m.At(0, 0) != 4 || m.At(1, 1) != 4 || m.At(0, 1) != 0 {
		t.Errorf("AddScaledIdentity:\n%v", m)
	}
}

func TestInverseKnown(t *testing.T) {
	m := FromRows([][]complex128{{4, 7}, {2, 6}})
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]complex128{{0.6, -0.7}, {-0.2, 0.4}})
	if !ApproxEqual(inv, want, 1e-12) {
		t.Errorf("Inverse:\n%v\nwant\n%v", inv, want)
	}
}

func TestInverseProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	prop := func(n8 uint8) bool {
		n := 1 + int(n8)%4
		m := randMatrix(r, n, n)
		inv, err := m.Inverse()
		if err != nil {
			return true // singular random draws are legal, just skip
		}
		return ApproxEqual(Mul(m, inv), Identity(n), 1e-9) &&
			ApproxEqual(Mul(inv, m), Identity(n), 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInverseSingular(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := m.Inverse(); !errors.Is(err, ErrSingular) {
		t.Errorf("singular matrix inverse error = %v, want ErrSingular", err)
	}
	rect := New(2, 3)
	if _, err := rect.Inverse(); err == nil {
		t.Error("non-square inverse should fail")
	}
}

func TestSolve(t *testing.T) {
	m := FromRows([][]complex128{{2, 1}, {1, 3}})
	x := []complex128{1 + 1i, -2}
	b := m.MulVec(x)
	got, err := m.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(got[i]-x[i]) > 1e-10 {
			t.Errorf("Solve[%d] = %v, want %v", i, got[i], x[i])
		}
	}
}

func TestPseudoInverse(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	// Tall matrix: pinv(A)·A = I.
	a := randMatrix(r, 4, 2)
	p, err := a.PseudoInverse()
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(Mul(p, a), Identity(2), 1e-9) {
		t.Error("pinv(A)·A != I for tall matrix")
	}
	// Square invertible: pinv == inv.
	s := randMatrix(r, 3, 3)
	ps, err := s.PseudoInverse()
	if err != nil {
		t.Fatal(err)
	}
	inv, err := s.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(ps, inv, 1e-8) {
		t.Error("pseudo-inverse of square matrix differs from inverse")
	}
	// Wide matrix rejected.
	if _, err := New(2, 3).PseudoInverse(); err == nil {
		t.Error("wide pseudo-inverse should fail")
	}
}

func TestDet(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {3, 4}})
	d, err := m.Det()
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(d-(-2)) > 1e-12 {
		t.Errorf("Det = %v, want -2", d)
	}
	sing := FromRows([][]complex128{{1, 2}, {2, 4}})
	d, err = sing.Det()
	if err != nil || cmplx.Abs(d) > 1e-12 {
		t.Errorf("singular Det = %v, err %v", d, err)
	}
	// det(A·B) = det(A)·det(B)
	r := rand.New(rand.NewSource(5))
	a := randMatrix(r, 3, 3)
	b := randMatrix(r, 3, 3)
	da, _ := a.Det()
	db, _ := b.Det()
	dab, _ := Mul(a, b).Det()
	if cmplx.Abs(dab-da*db) > 1e-9*cmplx.Abs(dab) {
		t.Errorf("det(AB) = %v, det(A)det(B) = %v", dab, da*db)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromRows([][]complex128{{3, 0}, {0, 4i}})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusNorm = %g, want 5", got)
	}
}

func BenchmarkInverse2x2(b *testing.B) {
	m := randMatrix(rand.New(rand.NewSource(6)), 2, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Inverse(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPseudoInverse4x4(b *testing.B) {
	m := randMatrix(rand.New(rand.NewSource(7)), 4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.PseudoInverse(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStringRendering(t *testing.T) {
	m := FromRows([][]complex128{{1 + 2i, -3}})
	s := m.String()
	if s == "" || !strings.Contains(s, "1") || !strings.Contains(s, "2") {
		t.Errorf("String() = %q", s)
	}
}

func TestShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"New":               func() { New(0, 1) },
		"Add":               func() { Add(New(1, 2), New(2, 1)) },
		"Sub":               func() { Sub(New(1, 2), New(2, 1)) },
		"AddScaledIdentity": func() { New(2, 3).AddScaledIdentity(1) },
		"MulVec":            func() { New(2, 2).MulVec(make([]complex128, 3)) },
		"MulVecInto":        func() { New(2, 2).MulVecInto(make([]complex128, 1), make([]complex128, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSolveSingular(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := m.Solve([]complex128{1, 1}); err == nil {
		t.Error("singular Solve should fail")
	}
}

func TestApproxEqualShapes(t *testing.T) {
	if ApproxEqual(New(1, 2), New(2, 1), 1) {
		t.Error("different shapes cannot be equal")
	}
	a := FromRows([][]complex128{{1}})
	b := FromRows([][]complex128{{1.5}})
	if ApproxEqual(a, b, 0.1) {
		t.Error("0.5 apart with tol 0.1")
	}
	if !ApproxEqual(a, b, 1) {
		t.Error("0.5 apart with tol 1 should match")
	}
}

func TestDetNonSquare(t *testing.T) {
	if _, err := New(2, 3).Det(); err == nil {
		t.Error("non-square Det should fail")
	}
}

func TestMulIntoMatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var dst *Matrix
	for trial := 0; trial < 50; trial++ {
		rows, inner, cols := 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4)
		a := randMatrix(r, rows, inner)
		b := randMatrix(r, inner, cols)
		dst = MulInto(dst, a, b) // reused across trials: shapes vary on purpose
		if want := Mul(a, b); !ApproxEqual(dst, want, 1e-12) {
			t.Fatalf("trial %d: MulInto:\n%v\nwant\n%v", trial, dst, want)
		}
	}
}

func TestMulIntoReusesStorage(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	dst := New(2, 2)
	data := &dst.Data[0]
	dst = MulInto(dst, a, a)
	if &dst.Data[0] != data {
		t.Error("MulInto allocated although dst capacity sufficed")
	}
}

func TestHermitianIntoMatches(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	var dst *Matrix
	for trial := 0; trial < 20; trial++ {
		m := randMatrix(r, 1+r.Intn(4), 1+r.Intn(4))
		dst = m.HermitianInto(dst)
		if want := m.Hermitian(); !ApproxEqual(dst, want, 0) {
			t.Fatalf("HermitianInto:\n%v\nwant\n%v", dst, want)
		}
	}
}

func TestInverseIntoMatchesInverse(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var dst, work *Matrix
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(4)
		m := randMatrix(r, n, n)
		orig := m.Clone()
		want, err := m.Inverse()
		var got *Matrix
		var err2 error
		got, work, err2 = m.InverseInto(dst, work)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("Inverse err %v vs InverseInto err %v", err, err2)
		}
		if err != nil {
			continue
		}
		dst = got
		if !ApproxEqual(got, want, 1e-12) {
			t.Fatalf("InverseInto:\n%v\nwant\n%v", got, want)
		}
		if !ApproxEqual(m, orig, 0) {
			t.Fatal("InverseInto mutated its receiver")
		}
	}
}

func TestInverseIntoErrors(t *testing.T) {
	if _, _, err := New(2, 3).InverseInto(nil, nil); err == nil {
		t.Error("non-square InverseInto should fail")
	}
	sing := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, _, err := sing.InverseInto(nil, nil); !errors.Is(err, ErrSingular) {
		t.Errorf("singular InverseInto error = %v, want ErrSingular", err)
	}
}
