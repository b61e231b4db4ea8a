package pnr

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"vital/internal/fpga"
	"vital/internal/linalg"
	"vital/internal/netlist"
)

// Placement maps every placeable entity of one virtual block onto a site of
// the physical block's grid. Because all physical blocks of a device are
// identical, the placement is position independent: relocating the block
// reuses it unchanged (Section 3.2).
type Placement struct {
	Grid     *fpga.Grid
	Entities []Entity
	// Sites[i] is the site of Entities[i].
	Sites []fpga.Site
	// cellEntity maps a netlist cell to its entity index (-1 for cells not
	// placed in this block, e.g. IO).
	cellEntity []int32
	// unconverged counts the placer's linear solves that stopped at their
	// iteration cap short of the tolerance.
	unconverged int
}

// SiteOf returns the site of the entity containing cell c.
func (p *Placement) SiteOf(c netlist.CellID) (fpga.Site, bool) {
	if c < 0 || int(c) >= len(p.cellEntity) || p.cellEntity[c] < 0 {
		return fpga.Site{}, false
	}
	return p.Sites[p.cellEntity[c]], true
}

// packMaxFanout is the fanout cap of the packing/placement adjacency view
// (clock and reset trees carry no locality information).
const packMaxFanout = 64

// PlaceBlock packs and places the given cells (the contents of one virtual
// block) onto the block grid. It returns an error if the cells exceed the
// grid's site capacity.
func PlaceBlock(n *netlist.Netlist, cells []netlist.CellID, grid *fpga.Grid) (*Placement, error) {
	return PlaceBlockAdj(n, cells, grid, n.Adjacency(packMaxFanout))
}

// PlaceBlockAdj is PlaceBlock with a caller-provided adjacency view
// (n.Adjacency(64)). The adjacency is the same for every virtual block of
// a design, so compiling many blocks should build it once and share it —
// it is only read here, never mutated, which also makes it safe to share
// across concurrent PlaceBlockAdj calls.
func PlaceBlockAdj(n *netlist.Netlist, cells []netlist.CellID, grid *fpga.Grid, adj [][]netlist.Edge) (*Placement, error) {
	entities := packCLBs(n, cells, adj)

	// Capacity check per kind.
	need := map[fpga.ColumnKind]int{}
	for i := range entities {
		need[entities[i].Kind]++
	}
	for kind, cnt := range need {
		if cap := grid.Capacity(kind); cnt > cap {
			return nil, fmt.Errorf("pnr: %d %v entities exceed block capacity %d", cnt, kind, cap)
		}
	}

	p := newPlacement(n, grid, entities)
	if err := p.place(adj); err != nil {
		return nil, err
	}
	return p, nil
}

// newPlacement returns an unplaced Placement of entities with its
// cell → entity index built.
func newPlacement(n *netlist.Netlist, grid *fpga.Grid, entities []Entity) *Placement {
	p := &Placement{Grid: grid, Entities: entities, Sites: make([]fpga.Site, len(entities)),
		cellEntity: make([]int32, n.NumCells())}
	for c := range p.cellEntity {
		p.cellEntity[c] = -1
	}
	for i := range entities {
		for _, c := range entities[i].Cells {
			p.cellEntity[c] = int32(i)
		}
	}
	return p
}

// placeIterations is the number of solve→legalize rounds of the analytic
// placement loop (SimPL-style: anchored quadratic relaxations interleaved
// with legalization, with growing anchor weight).
const placeIterations = 6

// place runs the iterative analytic placement loop and keeps the best
// legalized result by weighted wirelength. The entity graph and its
// Laplacian are built once; each relaxation only re-anchors the diagonal.
func (p *Placement) place(adj [][]netlist.Edge) error {
	ew := p.entityEdges(adj)
	lap := newLaplacian(len(p.Entities), ew)
	x, y, err := p.analyticPositions(lap, nil, nil, 0)
	if err != nil {
		return err
	}
	bestWL := math.Inf(1)
	bestSites := make([]fpga.Site, len(p.Sites))
	anchorW := 0.02
	for iter := 0; iter < placeIterations; iter++ {
		p.legalize(x, y)
		if wl := p.weightedWirelength(ew); wl < bestWL {
			bestWL = wl
			copy(bestSites, p.Sites)
		}
		if iter == placeIterations-1 {
			break
		}
		// Anchor every entity to its legalized site and re-relax.
		ax := make([]float64, len(p.Entities))
		ay := make([]float64, len(p.Entities))
		for i := range p.Entities {
			ax[i], ay[i] = p.Grid.SitePos(p.Sites[i])
		}
		if x, y, err = p.analyticPositions(lap, ax, ay, anchorW); err != nil {
			return err
		}
		anchorW *= 2
	}
	copy(p.Sites, bestSites)
	// Detailed placement: greedy swap refinement on the winning solution.
	p.refineDetailed(ew)
	return nil
}

// entityEdge is one weighted entity-level connection.
type entityEdge struct {
	a, b int
	w    float64
}

// entityEdges projects cell adjacency onto entities: one edge per
// connected entity pair a < b, weighted by the summed width of the cell
// edges between them, in (a, b) order.
func (p *Placement) entityEdges(adj [][]netlist.Edge) []entityEdge {
	// weight[b] accumulates entity a's connection to b > a; seen[b] == a+1
	// marks b as touched while a is visited.
	weight := make([]int, len(p.Entities))
	seen := make([]int, len(p.Entities))
	var touched []int
	var edges []entityEdge
	for a := range p.Entities {
		touched = touched[:0]
		for _, c := range p.Entities[a].Cells {
			for _, e := range adj[c] {
				b := int(p.cellEntity[e.To])
				if b <= a { // also skips cells outside the block (-1)
					continue
				}
				if seen[b] != a+1 {
					seen[b] = a + 1
					weight[b] = 0
					touched = append(touched, b)
				}
				weight[b] += e.Weight
			}
		}
		slices.Sort(touched)
		for _, b := range touched {
			edges = append(edges, entityEdge{a, b, float64(weight[b])})
		}
	}
	return edges
}

// laplacian is the weighted Laplacian of a block's entity graph in CSR
// form, built once per block. Each relaxation copies the edge values into
// m, adds its anchors to the diagonal and solves; the sparsity structure
// never changes.
type laplacian struct {
	m    *linalg.CSR
	base []float64 // edge-only values: -w off the diagonal, Σw on it
	diag []int     // diag[i] is the index of entry (i, i) in m.Val
}

// newLaplacian builds the Laplacian of ne entities connected by ew, which
// must be in entityEdges order. Every row stores its columns ascending
// with the diagonal in place. Walking ew in (a, b) order reaches row r's
// lower neighbours before its upper ones, each ascending, so the diagonal
// sums the row's edge weights in ascending column order.
func newLaplacian(ne int, ew []entityEdge) *laplacian {
	rowPtr := make([]int, ne+1)
	diag := make([]int, ne)
	for _, e := range ew {
		rowPtr[e.a+1]++
		rowPtr[e.b+1]++
		diag[e.b]++ // lower neighbours of row b
	}
	for i := 0; i < ne; i++ {
		rowPtr[i+1] += rowPtr[i] + 1 // + the diagonal
		diag[i] += rowPtr[i]
	}
	nnz := rowPtr[ne]
	l := &laplacian{
		m:    &linalg.CSR{N: ne, RowPtr: rowPtr, Col: make([]int, nnz), Val: make([]float64, nnz)},
		base: make([]float64, nnz),
		diag: diag,
	}
	next := make([]int, ne)
	copy(next, rowPtr)
	put := func(r, c int, v float64) {
		if next[r] == diag[r] {
			next[r]++ // first upper neighbour: step over the diagonal
		}
		l.m.Col[next[r]] = c
		l.base[next[r]] = v
		next[r]++
	}
	for i, d := range diag {
		l.m.Col[d] = i
	}
	for _, e := range ew {
		put(e.a, e.b, -e.w)
		put(e.b, e.a, -e.w)
		l.base[diag[e.a]] += e.w
		l.base[diag[e.b]] += e.w
	}
	return l
}

// reset restores the edge-only values, dropping the last relaxation's
// anchors.
func (l *laplacian) reset() { copy(l.m.Val, l.base) }

// addDiag adds v to entry (i, i).
func (l *laplacian) addDiag(i int, v float64) { l.m.Val[l.diag[i]] += v }

// weightedWirelength evaluates the current legalized placement.
func (p *Placement) weightedWirelength(edges []entityEdge) float64 {
	wl := 0.0
	for _, e := range edges {
		xa, ya := p.Grid.SitePos(p.Sites[e.a])
		xb, yb := p.Grid.SitePos(p.Sites[e.b])
		wl += e.w * (math.Abs(xa-xb) + math.Abs(ya-yb))
	}
	return wl
}

// analyticPositions computes continuous positions by quadratic placement:
// minimize Σ w_ij ((x_i−x_j)² + (y_i−y_j)²), solved by conjugate gradients
// for x and y in lockstep over the shared matrix. A solve that stops at
// its iteration cap is counted in p.unconverged, not failed: legalization
// absorbs the residual error.
func (p *Placement) analyticPositions(lap *laplacian, ax, ay []float64, anchorW float64) (x, y []float64, err error) {
	ne := len(p.Entities)
	x = make([]float64, ne)
	y = make([]float64, ne)
	if ne == 0 {
		return x, y, nil
	}
	bx, by := p.anchor(lap, ax, ay, anchorW)
	// Convergence tolerance is modest: legalization absorbs residual error
	// anyway.
	_, errs := linalg.SolveCG2(lap.m, x, bx, y, by, linalg.CGOptions{Tol: 1e-4, MaxIter: 300})
	for _, err := range errs {
		switch {
		case errors.Is(err, linalg.ErrNoConvergence):
			p.unconverged++
		case err != nil:
			return nil, nil, fmt.Errorf("pnr: placement solve: %w", err)
		}
	}
	return x, y, nil
}

// anchor loads lap.m with the edge Laplacian plus one relaxation's anchors
// and returns the right-hand sides. When ax/ay are nil, a few spread
// anchors break translation invariance (first relaxation); otherwise every
// entity is anchored at (ax[i], ay[i]) with weight anchorW (the SimPL-style
// pull toward the last legalization). Each diagonal entry sums, in this
// order, the row's edge weights (ascending column), its anchor and the
// regularizer eps.
func (p *Placement) anchor(lap *laplacian, ax, ay []float64, anchorW float64) (bx, by []float64) {
	ne := len(p.Entities)
	lap.reset()
	bx = make([]float64, ne)
	by = make([]float64, ne)
	W, H := float64(p.Grid.Width), float64(p.Grid.Rows)
	if ax == nil {
		// Spread anchors: every kth entity is softly pulled to a distinct
		// spot on a grid, which fixes the global position and spreads the
		// relaxation.
		const spreadW = 0.05
		stride := max(ne/64, 1)
		slot := 0
		for i := 0; i < ne; i += stride {
			fx := (float64(slot%8) + 0.5) / 8 * W
			fy := (float64(slot/8%8) + 0.5) / 8 * H
			lap.addDiag(i, spreadW)
			bx[i] += spreadW * fx
			by[i] += spreadW * fy
			slot++
		}
	} else {
		for i := 0; i < ne; i++ {
			lap.addDiag(i, anchorW)
			bx[i] += anchorW * ax[i]
			by[i] += anchorW * ay[i]
		}
	}
	// Weak uniform regularizer centers isolated entities.
	const eps = 1e-6
	for i := 0; i < ne; i++ {
		lap.addDiag(i, eps)
		bx[i] += eps * W / 2
		by[i] += eps * H / 2
	}
	return bx, by
}

// legalize snaps continuous positions to sites: per resource kind, entities
// are distributed over that kind's columns by x order, then packed into
// sites by y order.
func (p *Placement) legalize(x, y []float64) {
	byKind := map[fpga.ColumnKind][]int{}
	for i := range p.Entities {
		byKind[p.Entities[i].Kind] = append(byKind[p.Entities[i].Kind], i)
	}
	for kind, idxs := range byKind {
		cols := p.Grid.ColumnsOfKind(kind)
		// Sort entities by x, split proportionally across columns.
		sort.Slice(idxs, func(a, b int) bool {
			if x[idxs[a]] != x[idxs[b]] {
				return x[idxs[a]] < x[idxs[b]]
			}
			return idxs[a] < idxs[b]
		})
		total := len(idxs)
		start := 0
		remaining := total
		for ci, col := range cols {
			// Fill columns evenly (ceil division keeps the tail columns
			// within capacity).
			left := len(cols) - ci
			want := (remaining + left - 1) / left
			if capSites := p.Grid.SitesInColumn(col); want > capSites {
				want = capSites
			}
			colEnt := idxs[start : start+want]
			// Within a column, order by y.
			sort.Slice(colEnt, func(a, b int) bool {
				if y[colEnt[a]] != y[colEnt[b]] {
					return y[colEnt[a]] < y[colEnt[b]]
				}
				return colEnt[a] < colEnt[b]
			})
			for si, ei := range colEnt {
				p.Sites[ei] = fpga.Site{Kind: kind, Col: col, Idx: si}
			}
			start += want
			remaining -= want
		}
	}
}
