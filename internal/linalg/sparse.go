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
	s := [1]cgSolve{{x: x, b: b}}
	if err := solveCG(m, s[:], opt); err != nil {
		return 0, err
	}
	return s[0].iters, s[0].err
}

// SolveCG2 solves m·x = bx and m·y = by in lockstep: one pass over m per
// iteration serves both right-hand sides, for as long as both are still
// iterating. Each solve's arithmetic is exactly SolveCG's, so x and y come
// out bit for bit as two SolveCG calls leave them, with the same iteration
// counts and errors.
func SolveCG2(m *CSR, x, bx, y, by []float64, opt CGOptions) (iters [2]int, errs [2]error) {
	if len(x) != m.N || len(bx) != m.N || len(y) != m.N || len(by) != m.N {
		err := fmt.Errorf("linalg: SolveCG2 dimension mismatch: n=%d len(x)=%d len(bx)=%d len(y)=%d len(by)=%d",
			m.N, len(x), len(bx), len(y), len(by))
		return iters, [2]error{err, err}
	}
	s := [2]cgSolve{{x: x, b: bx}, {x: y, b: by}}
	if err := solveCG(m, s[:], opt); err != nil {
		return iters, [2]error{err, err}
	}
	return [2]int{s[0].iters, s[1].iters}, [2]error{s[0].err, s[1].err}
}

// cgSolve is one right-hand side of a conjugate-gradient run: the iterate
// x, the right-hand side b, the CG vectors, and the outcome (iters, err)
// once done is set.
type cgSolve struct {
	x, b        []float64
	r, z, p, ap []float64
	rz, normB   float64
	iters       int
	err         error
	done        bool
}

// solveCG runs Jacobi-preconditioned CG on every solve in ss over the one
// matrix m, in lockstep: each iteration multiplies m by the search
// direction of every solve still running in one pass over the rows. A
// solve that converges or fails stops there while the others go on. The
// returned error is about m itself (not SPD on the diagonal); per-solve
// outcomes land in each cgSolve.
func solveCG(m *CSR, ss []cgSolve, opt CGOptions) error {
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
			return fmt.Errorf("linalg: non-positive diagonal at row %d (%g): matrix not SPD", i, d)
		}
		inv[i] = 1 / d
	}

	for k := range ss {
		s := &ss[k]
		s.r = make([]float64, n)
		s.z = make([]float64, n)
		s.p = make([]float64, n)
		s.ap = make([]float64, n)
		m.MulVec(s.ap, s.x)
		for i := 0; i < n; i++ {
			s.r[i] = s.b[i] - s.ap[i]
			s.normB += s.b[i] * s.b[i]
		}
		s.normB = math.Sqrt(s.normB)
		if s.normB == 0 {
			for i := range s.x {
				s.x[i] = 0
			}
			s.done = true
			continue
		}
		for i := 0; i < n; i++ {
			s.z[i] = inv[i] * s.r[i]
			s.p[i] = s.z[i]
			s.rz += s.r[i] * s.z[i]
		}
	}
	var live [2]*cgSolve
	for iter := 1; iter <= maxIter; iter++ {
		on := live[:0]
		for k := range ss {
			if !ss[k].done {
				on = append(on, &ss[k])
			}
		}
		// The lockstep product serves up to two solves, all SolveCG2 runs.
		var pap [2]float64
		switch len(on) {
		case 0:
			return nil
		case 1:
			pap[0] = m.mulDot(on[0].ap, on[0].p)
		default:
			pap[0], pap[1] = m.mulDot2(on[0].ap, on[0].p, on[1].ap, on[1].p)
		}
		for k, s := range on {
			if pap[k] <= 0 {
				s.iters, s.err, s.done = iter, fmt.Errorf("linalg: p·Ap = %g ≤ 0 at iter %d: matrix not SPD", pap[k], iter), true
				continue
			}
			alpha := s.rz / pap[k]
			normR, rzNew := 0.0, 0.0
			x, r, z, p, ap := s.x[:n], s.r[:n], s.z[:n], s.p[:n], s.ap[:n]
			for i := range x {
				x[i] += alpha * p[i]
				r[i] -= alpha * ap[i]
				normR += r[i] * r[i]
				z[i] = inv[i] * r[i]
				rzNew += r[i] * z[i]
			}
			if math.Sqrt(normR)/s.normB <= tol {
				s.iters, s.done = iter, true
				continue
			}
			beta := rzNew / s.rz
			s.rz = rzNew
			for i := range p {
				p[i] = z[i] + beta*p[i]
			}
		}
	}
	for k := range ss {
		if s := &ss[k]; !s.done {
			s.iters, s.err = maxIter, ErrNoConvergence
		}
	}
	return nil
}

// mulDot sets ap = m·p and returns p·ap, summed row by row as MulVec and a
// separate dot-product loop would.
func (m *CSR) mulDot(ap, p []float64) float64 {
	pap := 0.0
	for r := range ap {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		cols := m.Col[lo:hi:hi]
		s := 0.0
		for i, v := range m.Val[lo:hi:hi] {
			s += v * p[cols[i]]
		}
		ap[r] = s
		pap += p[r] * s
	}
	return pap
}

// mulDot2 is mulDot for two vectors over one pass of m.
func (m *CSR) mulDot2(ap, p, aq, q []float64) (pap, qaq float64) {
	for r := range ap {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		cols := m.Col[lo:hi:hi]
		s, t := 0.0, 0.0
		for i, v := range m.Val[lo:hi:hi] {
			c := cols[i]
			s += v * p[c]
			t += v * q[c]
		}
		ap[r], aq[r] = s, t
		pap += p[r] * s
		qaq += q[r] * t
	}
	return pap, qaq
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
