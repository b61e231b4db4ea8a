// Package linalg provides the sparse symmetric linear algebra used by the
// quadratic global placer (Section 4.2). The paper solves its placement
// linear systems with the Eigen C++ library; this package is the stdlib-only
// substitute: a compressed-sparse-row symmetric positive-definite matrix and
// a Jacobi-preconditioned conjugate-gradient solver.
package linalg

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Triplet is one (row, col, value) coordinate entry used to assemble a
// sparse matrix. Duplicate coordinates are summed on assembly, matching the
// usual finite-element/placement assembly style.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix. For the placement systems the
// matrix is symmetric positive definite; CSR itself does not enforce
// symmetry but the solver assumes it.
type CSR struct {
	N      int
	RowPtr []int
	Col    []int
	Val    []float64
}

// FromTriplets assembles an n×n CSR matrix from coordinate entries, summing
// duplicates left to right in input order (floating-point addition is not
// associative, so the order is part of the result). Entries that sum to
// zero are dropped. Entries outside the n×n range cause an error.
func FromTriplets(n int, ts []Triplet) (*CSR, error) {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			return nil, fmt.Errorf("linalg: triplet (%d,%d) outside %d×%d", t.Row, t.Col, n, n)
		}
	}
	sorted := make([]Triplet, len(ts))
	copy(sorted, ts)
	slices.SortStableFunc(sorted, func(a, b Triplet) int {
		if c := cmp.Compare(a.Row, b.Row); c != 0 {
			return c
		}
		return cmp.Compare(a.Col, b.Col)
	})
	m := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			m.Col = append(m.Col, sorted[i].Col)
			m.Val = append(m.Val, v)
			m.RowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < n; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// NNZ returns the number of stored (non-zero) entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes dst = m · x. dst and x must both have length N and must
// not alias.
func (m *CSR) MulVec(dst, x []float64) {
	if len(dst) != m.N || len(x) != m.N {
		panic("linalg: MulVec dimension mismatch")
	}
	// Ranging over each row's three-index subslices lets the compiler drop
	// the bounds checks on Val and Col; entries are summed in stored
	// order, exactly as an index loop over RowPtr would.
	for r := range dst {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		cols := m.Col[lo:hi:hi]
		s := 0.0
		for i, v := range m.Val[lo:hi:hi] {
			s += v * x[cols[i]]
		}
		dst[r] = s
	}
}

// Diagonal extracts the main diagonal.
func (m *CSR) Diagonal() []float64 {
	d := make([]float64, m.N)
	for r := 0; r < m.N; r++ {
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			if m.Col[i] == r {
				d[r] = m.Val[i]
			}
		}
	}
	return d
}

// At returns the entry (r, c), zero if not stored. Intended for tests and
// diagnostics, not inner loops.
func (m *CSR) At(r, c int) float64 {
	for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
		if m.Col[i] == c {
			return m.Val[i]
		}
	}
	return 0
}

// CGOptions controls the conjugate-gradient solver.
type CGOptions struct {
	// Tol is the relative residual tolerance ‖b − Ax‖ / ‖b‖ at which the
	// iteration stops. Zero means 1e-8.
	Tol float64
	// MaxIter caps iterations. Zero means 4·N.
	MaxIter int
}

// ErrNoConvergence is returned when CG does not reach the tolerance within
// the iteration budget. The best iterate found is still written to x.
var ErrNoConvergence = errors.New("linalg: conjugate gradient did not converge")

// SolveCG solves m·x = b for symmetric positive-definite m using
// Jacobi-preconditioned conjugate gradients. The initial content of x is
// used as the starting guess (warm start across placement iterations).
// It returns the iteration count used.
func SolveCG(m *CSR, x, b []float64, opt CGOptions) (int, error) {
	if len(x) != m.N || len(b) != m.N {
		return 0, fmt.Errorf("linalg: SolveCG dimension mismatch: n=%d len(x)=%d len(b)=%d", m.N, len(x), len(b))
	}
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-8
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 4 * m.N
	}
	n := m.N
	inv := make([]float64, n)
	for i, d := range m.Diagonal() {
		if d <= 0 {
			// Anchored placement matrices are strictly diagonally dominant;
			// a non-positive diagonal means an unanchored free variable.
			return 0, fmt.Errorf("linalg: non-positive diagonal at row %d (%g): matrix not SPD", i, d)
		}
		inv[i] = 1 / d
	}

	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	m.MulVec(ap, x)
	normB := 0.0
	for i := 0; i < n; i++ {
		r[i] = b[i] - ap[i]
		normB += b[i] * b[i]
	}
	normB = math.Sqrt(normB)
	if normB == 0 {
		for i := range x {
			x[i] = 0
		}
		return 0, nil
	}
	rz := 0.0
	for i := 0; i < n; i++ {
		z[i] = inv[i] * r[i]
		p[i] = z[i]
		rz += r[i] * z[i]
	}
	for iter := 1; iter <= maxIter; iter++ {
		m.MulVec(ap, p)
		pap := 0.0
		for i := 0; i < n; i++ {
			pap += p[i] * ap[i]
		}
		if pap <= 0 {
			return iter, fmt.Errorf("linalg: p·Ap = %g ≤ 0 at iter %d: matrix not SPD", pap, iter)
		}
		alpha := rz / pap
		normR := 0.0
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			normR += r[i] * r[i]
		}
		if math.Sqrt(normR)/normB <= tol {
			return iter, nil
		}
		rzNew := 0.0
		for i := 0; i < n; i++ {
			z[i] = inv[i] * r[i]
			rzNew += r[i] * z[i]
		}
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
	return maxIter, ErrNoConvergence
}

// Residual returns ‖b − m·x‖₂ for diagnostics and tests.
func Residual(m *CSR, x, b []float64) float64 {
	ax := make([]float64, m.N)
	m.MulVec(ax, x)
	s := 0.0
	for i := range ax {
		d := b[i] - ax[i]
		s += d * d
	}
	return math.Sqrt(s)
}
