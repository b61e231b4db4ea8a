package fpga

import "fmt"

// Site is one placeable location inside a physical block.
type Site struct {
	Kind ColumnKind
	Col  int // column index within the block, 0-based from the left
	Idx  int // site index within the column, 0-based from the bottom
}

// Grid is the placement-site geometry of one physical block, derived from
// its BlockShape. Place-and-route (internal/pnr) assigns packed cells to
// sites and routes over the (Width × Rows) routing fabric.
type Grid struct {
	Shape BlockShape
	// Width is the number of columns, Rows the block height in CLB rows.
	Width, Rows int
	// colsOfKind[k] lists the indices of the columns carrying kind k,
	// left to right.
	colsOfKind [numColumnKinds][]int
}

// NewGrid builds the site grid for a block shape.
func NewGrid(shape BlockShape) *Grid {
	g := &Grid{Shape: shape, Width: len(shape.Columns), Rows: shape.Rows}
	for i, c := range shape.Columns {
		if int(c.Kind) < numColumnKinds {
			g.colsOfKind[c.Kind] = append(g.colsOfKind[c.Kind], i)
		}
	}
	return g
}

// ColumnsOfKind returns the column indices carrying the given kind, left
// to right. The slice is the grid's own, built once by NewGrid and shared
// by every caller: it must not be modified.
func (g *Grid) ColumnsOfKind(k ColumnKind) []int {
	if int(k) >= numColumnKinds {
		return nil
	}
	return g.colsOfKind[k]
}

// SitesInColumn returns the number of sites in column col.
func (g *Grid) SitesInColumn(col int) int { return g.Shape.Columns[col].SitesPerDie }

// SitePos returns the (x, y) coordinate of a site in routing-grid units.
// Columns are unit-spaced in x; sites are spread evenly over the block
// height in y, so hard-IP columns with a different site pitch than CLB
// columns still produce comparable wirelengths.
func (g *Grid) SitePos(s Site) (float64, float64) {
	n := g.SitesInColumn(s.Col)
	if n == 0 {
		return float64(s.Col), 0
	}
	return float64(s.Col), (float64(s.Idx) + 0.5) * float64(g.Rows) / float64(n)
}

// NearestSite returns the site of the given kind closest to the continuous
// point (x, y), or an error if the grid has no columns of that kind.
func (g *Grid) NearestSite(k ColumnKind, x, y float64) (Site, error) {
	cols := g.ColumnsOfKind(k)
	if len(cols) == 0 {
		return Site{}, fmt.Errorf("fpga: grid has no %s columns", k)
	}
	bestCol := cols[0]
	bestDist := -1.0
	for _, c := range cols {
		d := x - float64(c)
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			bestDist = d
			bestCol = c
		}
	}
	n := g.SitesInColumn(bestCol)
	idx := int(y * float64(n) / float64(g.Rows))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return Site{Kind: k, Col: bestCol, Idx: idx}, nil
}

// Capacity returns the number of sites of the given kind in the block.
func (g *Grid) Capacity(k ColumnKind) int {
	n := 0
	for _, c := range g.Shape.Columns {
		if c.Kind == k {
			n += c.SitesPerDie
		}
	}
	return n
}
