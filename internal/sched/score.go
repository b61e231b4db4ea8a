package sched

import (
	"fmt"
	"sort"

	"vital/internal/bitstream"
	"vital/internal/cluster"
)

// Placement-quality scorer (DESIGN.md §11). ViTAL's runtime policy is
// communication-aware (Section 3.4): it minimizes the channel crossings a
// placement forces onto slower links. This file quantifies that — per
// deployment, how many compiled inter-block channels land intra-die,
// inter-die and inter-board; cluster-wide, how fragmented the remaining
// free capacity is. Both feed gauges, JSON /metrics and GET /placement.

// PlacementScore grades one deployment's placement against its compiled
// channel topology.
type PlacementScore struct {
	App    string `json:"app"`
	Blocks int    `json:"blocks"`
	Boards int    `json:"boards"`
	// Edges is the number of directed block-to-block channels scored;
	// the three crossing counters partition it by the link class the
	// current placement maps each edge onto.
	Edges      int `json:"edges"`
	IntraDie   int `json:"intra_die"`
	InterDie   int `json:"inter_die"`
	InterBoard int `json:"inter_board"`
	// Quality is 1 − (InterDie + 2·InterBoard) / (2·Edges): 1.0 when every
	// channel stays on-die, 0.0 when every channel crosses boards.
	Quality float64 `json:"quality"`
}

// BoardFragmentation reports one healthy board's free-capacity shape.
type BoardFragmentation struct {
	Board      int `json:"board"`
	FreeBlocks int `json:"free_blocks"`
	// LongestRun is the longest run of physically consecutive free blocks
	// (same die, adjacent indices) — the largest single-die tenant the
	// board can host contiguously.
	LongestRun int `json:"longest_run"`
}

// ClusterPlacement is the cluster-wide placement-quality report.
type ClusterPlacement struct {
	Apps            []PlacementScore     `json:"apps"`
	InterDieTotal   int                  `json:"inter_die_total"`
	InterBoardTotal int                  `json:"inter_board_total"`
	FreeBlocks      int                  `json:"free_blocks"`
	LongestFreeRun  int                  `json:"longest_free_run"`
	Boards          []BoardFragmentation `json:"boards"`
	// FragmentationIndex is 1 − LongestFreeRun/ideal, where ideal is the
	// best run the free capacity could form: min(FreeBlocks, blocks per
	// die) — a run can never span a die boundary, so an empty cluster
	// scores 0.0, and the index approaches 1.0 as free blocks scatter
	// into many short runs.
	FragmentationIndex float64 `json:"fragmentation_index"`
}

// ScorePlacement grades a placement of virtual blocks (index-aligned with
// blocks) against the directed channel edges between them. It is a pure
// function so tests can assert exact crossing counts for known Fig. 7
// floorplan layouts.
func ScorePlacement(app string, edges []bitstream.BlockEdge, blocks []cluster.GlobalBlockRef) PlacementScore {
	sc := PlacementScore{App: app, Blocks: len(blocks), Boards: len(BoardsOf(blocks))}
	for _, e := range edges {
		if e.Src < 0 || e.Src >= len(blocks) || e.Dst < 0 || e.Dst >= len(blocks) {
			continue
		}
		src, dst := blocks[e.Src], blocks[e.Dst]
		sc.Edges++
		switch {
		case src.Board != dst.Board:
			sc.InterBoard++
		case src.Die != dst.Die:
			sc.InterDie++
		default:
			sc.IntraDie++
		}
	}
	if sc.Edges == 0 {
		sc.Quality = 1
	} else {
		sc.Quality = 1 - float64(sc.InterDie+2*sc.InterBoard)/float64(2*sc.Edges)
	}
	return sc
}

// chainEdges is the fallback channel topology when the bitstream database
// has no record for an app (e.g. bitstreams registered directly in tests):
// the pipeline chain vb0 → vb1 → … that partitioning produces for most of
// the Table 2 designs.
func chainEdges(nb int) []bitstream.BlockEdge {
	if nb < 2 {
		return nil
	}
	edges := make([]bitstream.BlockEdge, nb-1)
	for i := range edges {
		edges[i] = bitstream.BlockEdge{Src: i, Dst: i + 1}
	}
	return edges
}

// PlacementScore grades one deployed application's current placement.
func (ct *Controller) PlacementScore(app string) (PlacementScore, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	dep, ok := ct.deployed[app]
	if !ok {
		return PlacementScore{}, fmt.Errorf("sched: %q not deployed", app)
	}
	return ct.scoreLocked(app, dep), nil
}

func (ct *Controller) scoreLocked(app string, dep *Deployment) PlacementScore {
	edges, ok := ct.Bitstreams.Channels(app)
	if !ok {
		edges = chainEdges(len(dep.Blocks))
	}
	return ScorePlacement(app, edges, dep.Blocks)
}

// Placement assembles the cluster-wide placement-quality report.
func (ct *Controller) Placement() ClusterPlacement {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.placementLocked(ct.DB.BoardStats())
}

func (ct *Controller) placementLocked(boards []BoardStat) ClusterPlacement {
	cp := ClusterPlacement{}
	// Deterministic app order: sort before scoring (mapdeterminism).
	apps := make([]string, 0, len(ct.deployed))
	for app := range ct.deployed {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		sc := ct.scoreLocked(app, ct.deployed[app])
		cp.Apps = append(cp.Apps, sc)
		cp.InterDieTotal += sc.InterDie
		cp.InterBoardTotal += sc.InterBoard
	}
	for b, st := range boards {
		bf := BoardFragmentation{Board: b, FreeBlocks: st.Free, LongestRun: st.LongestRun}
		cp.Boards = append(cp.Boards, bf)
		cp.FreeBlocks += bf.FreeBlocks
		if bf.LongestRun > cp.LongestFreeRun {
			cp.LongestFreeRun = bf.LongestRun
		}
	}
	if cp.FreeBlocks > 0 {
		maxDie := 0
		for _, b := range ct.Cluster.Boards {
			if b.Device.BlocksPerDie > maxDie {
				maxDie = b.Device.BlocksPerDie
			}
		}
		ideal := cp.FreeBlocks
		if maxDie > 0 && maxDie < ideal {
			ideal = maxDie
		}
		if ideal > 0 {
			cp.FragmentationIndex = 1 - float64(cp.LongestFreeRun)/float64(ideal)
		}
	}
	return cp
}
