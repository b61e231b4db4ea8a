package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFromTripletsSumsDuplicates(t *testing.T) {
	m, err := FromTriplets(2, []Triplet{
		{0, 0, 1}, {0, 0, 2}, {0, 1, -1}, {1, 0, -1}, {1, 1, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 0); got != 3 {
		t.Fatalf("At(0,0) = %v, want 3", got)
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
}

func TestFromTripletsRejectsOutOfRange(t *testing.T) {
	if _, err := FromTriplets(2, []Triplet{{2, 0, 1}}); err == nil {
		t.Fatal("accepted out-of-range triplet")
	}
}

func TestFromTripletsDropsExplicitZeros(t *testing.T) {
	m, err := FromTriplets(2, []Triplet{{0, 0, 1}, {0, 1, 5}, {0, 1, -5}, {1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (cancelled entry kept?)", m.NNZ())
	}
}

func TestMulVec(t *testing.T) {
	// [[2, -1], [-1, 2]] · [1, 1] = [1, 1]
	m, _ := FromTriplets(2, []Triplet{{0, 0, 2}, {0, 1, -1}, {1, 0, -1}, {1, 1, 2}})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1})
	if dst[0] != 1 || dst[1] != 1 {
		t.Fatalf("MulVec = %v", dst)
	}
}

// laplacianSystem builds the anchored graph Laplacian of a random connected
// graph — exactly the structure quadratic placement produces. anchorW > 0
// guarantees SPD.
func laplacianSystem(rng *rand.Rand, n int, anchorW float64) (*CSR, []float64) {
	var ts []Triplet
	for i := 1; i < n; i++ {
		j := rng.Intn(i) // connect to an earlier vertex: connected graph
		w := 0.5 + rng.Float64()*2
		ts = append(ts,
			Triplet{i, i, w}, Triplet{j, j, w},
			Triplet{i, j, -w}, Triplet{j, i, -w})
	}
	// extra random edges
	for e := 0; e < n; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		w := 0.5 + rng.Float64()
		ts = append(ts,
			Triplet{i, i, w}, Triplet{j, j, w},
			Triplet{i, j, -w}, Triplet{j, i, -w})
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		ts = append(ts, Triplet{i, i, anchorW})
		b[i] = anchorW * (rng.Float64()*10 - 5) // anchor target positions
	}
	m, err := FromTriplets(n, ts)
	if err != nil {
		panic(err)
	}
	return m, b
}

func TestSolveCGOnAnchoredLaplacian(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, b := laplacianSystem(rng, 200, 0.1)
	x := make([]float64, 200)
	iters, err := SolveCG(m, x, b, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatalf("SolveCG: %v (after %d iters)", err, iters)
	}
	res := Residual(m, x, b)
	normB := 0.0
	for _, v := range b {
		normB += v * v
	}
	normB = math.Sqrt(normB)
	if res/normB > 1e-9 {
		t.Fatalf("relative residual %g too large", res/normB)
	}
}

func TestSolveCGWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, b := laplacianSystem(rng, 300, 0.05)
	cold := make([]float64, 300)
	coldIters, err := SolveCG(m, cold, b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the exact solution should converge almost immediately.
	warm := make([]float64, 300)
	copy(warm, cold)
	warmIters, err := SolveCG(m, warm, b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warmIters >= coldIters {
		t.Fatalf("warm start took %d iters, cold took %d", warmIters, coldIters)
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	m, _ := FromTriplets(2, []Triplet{{0, 0, 1}, {1, 1, 1}})
	x := []float64{3, 4}
	iters, err := SolveCG(m, x, []float64{0, 0}, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if iters != 0 || x[0] != 0 || x[1] != 0 {
		t.Fatalf("zero RHS: x=%v iters=%d", x, iters)
	}
}

func TestSolveCGRejectsNonSPD(t *testing.T) {
	m, _ := FromTriplets(2, []Triplet{{0, 0, -1}, {1, 1, 1}})
	x := make([]float64, 2)
	if _, err := SolveCG(m, x, []float64{1, 1}, CGOptions{}); err == nil {
		t.Fatal("accepted matrix with negative diagonal")
	}
}

func TestSolveCGDimensionMismatch(t *testing.T) {
	m, _ := FromTriplets(2, []Triplet{{0, 0, 1}, {1, 1, 1}})
	if _, err := SolveCG(m, make([]float64, 3), make([]float64, 2), CGOptions{}); err == nil {
		t.Fatal("accepted mismatched x length")
	}
}

// Property: for random anchored Laplacians, CG converges and the solution
// satisfies the normal equations to tolerance.
func TestQuickCGConverges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		m, b := laplacianSystem(rng, n, 0.2)
		x := make([]float64, n)
		if _, err := SolveCG(m, x, b, CGOptions{Tol: 1e-9}); err != nil {
			return false
		}
		normB := 0.0
		for _, v := range b {
			normB += v * v
		}
		return Residual(m, x, b) <= 1e-6*math.Sqrt(normB)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFromTripletsSumsDuplicatesInInputOrder(t *testing.T) {
	// 1e16 + 1 rounds back to 1e16, so summing 1e16, 1, -1e16 left to
	// right gives 0 (dropped); any other order gives ±1. The three entries
	// are scattered, in that order, among random filler, which an
	// unstable sort would reorder.
	vals := []float64{1e16, 1, -1e16}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts := make([]Triplet, 63)
		for i := range ts {
			ts[i] = Triplet{rng.Intn(8), rng.Intn(8), 1}
		}
		pos := rng.Perm(len(ts))[:len(vals)]
		sort.Ints(pos)
		for k, p := range pos {
			ts[p] = Triplet{8, 8, vals[k]}
		}
		m, err := FromTriplets(9, ts)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.At(8, 8); got != 0 {
			t.Fatalf("seed %d: At(8,8) = %v, want 0 (1e16 + 1 - 1e16 summed left to right)", seed, got)
		}
	}
}
