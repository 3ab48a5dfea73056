// Package cmatrix implements small dense complex-valued linear algebra: the
// matrix sizes in a MIMO receiver are N_RX × N_SS with N ≤ 4, so the package
// favours simplicity and numerical robustness (partial pivoting everywhere)
// over asymptotic tricks.
package cmatrix

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("cmatrix: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all have equal length.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("cmatrix: FromRows needs at least one row and column")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("cmatrix: FromRows ragged input")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%.4g%+.4gi", real(m.At(i, j)), imag(m.At(i, j)))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// Mul returns the matrix product a·b. It panics if the inner dimensions do
// not agree.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("cmatrix: Mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			row := out.Data[i*out.Cols : (i+1)*out.Cols]
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j := range brow {
				row[j] += av * brow[j]
			}
		}
	}
	return out
}

// MulInto computes a·b into dst, reusing dst's storage when its capacity
// suffices (its shape is overwritten). dst must not alias a or b. Returns
// dst, or a fresh matrix when dst was nil or too small — callers keeping a
// scratch matrix should store the return value back.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("cmatrix: MulInto shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst = reshape(dst, a.Rows, b.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			row := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j := range brow {
				row[j] += av * brow[j]
			}
		}
	}
	return dst
}

// reshape returns a rows×cols matrix backed by m's storage when it is large
// enough, allocating otherwise. Element values are unspecified: every
// Into-style operation fully overwrites its destination.
func reshape(m *Matrix, rows, cols int) *Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return New(rows, cols)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:rows*cols]
	return m
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []complex128) []complex128 {
	if len(x) != m.Cols {
		panic("cmatrix: MulVec length mismatch")
	}
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s complex128
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulVecInto is MulVec writing into a caller-provided slice of length Rows,
// for allocation-free per-subcarrier equalization.
func (m *Matrix) MulVecInto(dst, x []complex128) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("cmatrix: MulVecInto length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		var s complex128
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// Hermitian returns the conjugate transpose mᴴ.
func (m *Matrix) Hermitian() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return out
}

// HermitianInto computes mᴴ into dst under the same storage-reuse contract
// as MulInto. dst must not alias m.
func (m *Matrix) HermitianInto(dst *Matrix) *Matrix {
	dst = reshape(dst, m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			dst.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return dst
}

// Transpose returns mᵀ without conjugation.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Add returns a+b.
func Add(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("cmatrix: Add shape mismatch")
	}
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a−b.
func Sub(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("cmatrix: Sub shape mismatch")
	}
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// ScaleInPlace multiplies every element by s.
func (m *Matrix) ScaleInPlace(s complex128) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaledIdentity adds s·I to the square matrix m in place. It panics if m
// is not square. Used to build the MMSE regularized Gram matrix HᴴH + σ²I.
func (m *Matrix) AddScaledIdentity(s complex128) {
	if m.Rows != m.Cols {
		panic("cmatrix: AddScaledIdentity on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += s
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		re, im := real(v), imag(v)
		s += re*re + im*im
	}
	return math.Sqrt(s)
}

// ErrSingular is the error Inverse and InverseInto return for a matrix
// that is numerically singular (a pivot below 1e-13 in magnitude). It is a
// fixed value, so a rank-deficient tone costs a receiver no allocation.
var ErrSingular = errors.New("cmatrix: singular matrix")

// Inverse returns m⁻¹ computed by Gauss-Jordan elimination with partial
// pivoting, or an error if m is singular (ErrSingular: pivot below the
// numerical threshold) or non-square.
func (m *Matrix) Inverse() (*Matrix, error) {
	inv, _, err := m.InverseInto(nil, nil)
	return inv, err
}

// InverseInto computes m⁻¹ into dst, using work as the Gauss-Jordan
// elimination workspace; m itself is left untouched. dst and work follow the
// MulInto storage-reuse contract and must not alias m or each other. Returns
// (dst, work) so callers holding scratch matrices can store both back.
func (m *Matrix) InverseInto(dst, work *Matrix) (*Matrix, *Matrix, error) {
	if m.Rows != m.Cols {
		return nil, work, fmt.Errorf("cmatrix: inverse of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := reshape(work, n, n)
	copy(a.Data, m.Data)
	inv := reshape(dst, n, n)
	for i := range inv.Data {
		inv.Data[i] = 0
	}
	for i := 0; i < n; i++ {
		inv.Data[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in column at/below diagonal.
		pivot := col
		pmax := cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a.At(r, col)); v > pmax {
				pivot, pmax = r, v
			}
		}
		if pmax < 1e-13 {
			return nil, a, ErrSingular
		}
		if pivot != col {
			a.swapRows(col, pivot)
			inv.swapRows(col, pivot)
		}
		// Normalize pivot row.
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, a, nil
}

func (m *Matrix) swapRows(i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Solve returns x such that m·x = b, via the inverse (matrices here are tiny).
func (m *Matrix) Solve(b []complex128) ([]complex128, error) {
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.MulVec(b), nil
}

// PseudoInverse returns the left Moore-Penrose pseudo-inverse
// (AᴴA)⁻¹Aᴴ for a tall-or-square full-column-rank matrix. This is the
// zero-forcing detector matrix.
func (m *Matrix) PseudoInverse() (*Matrix, error) {
	if m.Rows < m.Cols {
		return nil, fmt.Errorf("cmatrix: pseudo-inverse needs rows ≥ cols, got %dx%d", m.Rows, m.Cols)
	}
	h := m.Hermitian()
	gram := Mul(h, m)
	gi, err := gram.Inverse()
	if err != nil {
		return nil, fmt.Errorf("cmatrix: rank-deficient matrix: %w", err)
	}
	return Mul(gi, h), nil
}

// Det returns the determinant via LU decomposition with partial pivoting.
func (m *Matrix) Det() (complex128, error) {
	if m.Rows != m.Cols {
		return 0, fmt.Errorf("cmatrix: determinant of non-square matrix")
	}
	n := m.Rows
	a := m.Clone()
	det := complex128(1)
	for col := 0; col < n; col++ {
		pivot := col
		pmax := cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a.At(r, col)); v > pmax {
				pivot, pmax = r, v
			}
		}
		if pmax == 0 {
			return 0, nil
		}
		if pivot != col {
			a.swapRows(col, pivot)
			det = -det
		}
		p := a.At(col, col)
		det *= p
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / p
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
			}
		}
	}
	return det, nil
}

// ApproxEqual reports whether a and b agree element-wise within tol.
func ApproxEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
