package partition

import (
	"errors"
	"fmt"
	"math/rand"

	"vital/internal/netlist"
)

// Config parameterizes the partitioner.
type Config struct {
	// BlockCapacity is the resource capacity of one virtual block
	// (Table 4 for the XCVU37P floorplan).
	BlockCapacity netlist.Resources
	// Seed drives all stochastic stages.
	Seed int64
}

// The partitioner's fixed tuning. Every caller runs it with these values,
// so they are constants rather than options.
const (
	// alpha is the aspect-ratio weight α of Eq. 1/Eq. 3.
	alpha = 1.0
	// maxFanout caps net fanout for connectivity analysis (clock/reset
	// trees carry no locality).
	maxFanout = 64
	// packBoundaryWidth keeps the packing stage from growing clusters
	// across nets at least this wide — wide buses are natural module
	// interfaces.
	packBoundaryWidth = 128
	// clusterShrink divides BlockCapacity to obtain the packing cluster
	// capacity (≈48 clusters per full block).
	clusterShrink = 48
	// gapTol terminates the anchored iteration when the relative gap
	// between legalized and relaxed wirelength drops below it: the
	// paper's 20%.
	gapTol = 0.20
	// maxIterations caps the step (2)/(3) iterations.
	maxIterations = 10
	// annealSweeps scales the annealing effort per legalization.
	annealSweeps = 12
	// maxCutInBits / maxCutOutBits bound the total width of cut data nets
	// entering/leaving one virtual block — the block's share of
	// latency-insensitive channel bandwidth.
	maxCutInBits  = 448
	maxCutOutBits = 448
	// channelNetMinWidth is the width below which a cut net is treated as
	// a sideband signal aggregated into the shared control channel rather
	// than consuming data-channel bandwidth.
	channelNetMinWidth = 32
	// restarts is how many reseeded annealer runs Auto tries before it
	// gives up on a block count.
	restarts = 2
)

// Result is a complete partition of a netlist into virtual blocks.
type Result struct {
	NumBlocks int
	// Clusters is the packing result; ClusterOf maps cell → cluster.
	Clusters  []*Cluster
	ClusterOf []int
	// BlockOf maps cluster → virtual block; CellBlock maps cell → block.
	BlockOf   []int
	CellBlock []int
	// CutWidth is the total inter-block width in bits; PerBlockInBits and
	// PerBlockOutBits give each block's ingress/egress cut bandwidth.
	CutWidth        int
	PerBlockInBits  []int
	PerBlockOutBits []int
	// Usage is the per-block resource usage.
	Usage []netlist.Resources
	// Iterations is the number of anchored placement iterations run.
	Iterations int
	// Legal reports capacity feasibility; ChannelsOK reports interface
	// bandwidth feasibility.
	Legal      bool
	ChannelsOK bool
	// Stochastic reports whether simulated annealing actually ran; when
	// false the result is deterministic and reseeded restarts are
	// pointless.
	Stochastic bool
}

// Feasible reports whether the partition satisfies both block capacity and
// channel-bandwidth budgets.
func (r *Result) Feasible() bool { return r.Legal && r.ChannelsOK }

// ErrNoFeasiblePartition is returned by Auto when no block count within the
// limit yields a feasible partition.
var ErrNoFeasiblePartition = errors.New("partition: no feasible block count found")

// prepared caches the block-count-independent stages (packing, cluster
// graph, net spans) so Auto can sweep block counts cheaply.
type prepared struct {
	n         *netlist.Netlist
	cfg       Config
	clusters  []*Cluster
	clusterOf []int
	g         *clusterGraph
	spans     []netSpan
}

// prepare runs packing and connectivity projection once.
func prepare(n *netlist.Netlist, cfg Config) (*prepared, error) {
	if cfg.BlockCapacity.IsZero() {
		return nil, errors.New("partition: BlockCapacity not set")
	}
	adj, pc := packInputs(n, cfg)
	clusters := pack(n, adj, pc)
	clusterOf := make([]int, n.NumCells())
	for _, cl := range clusters {
		for _, c := range cl.Cells {
			clusterOf[c] = cl.ID
		}
	}
	return &prepared{
		n:         n,
		cfg:       cfg,
		clusters:  clusters,
		clusterOf: clusterOf,
		g:         buildClusterGraph(n, clusterOf, len(clusters)),
		spans:     buildSpans(n, clusterOf),
	}, nil
}

// packInputs returns the capped adjacency and the configuration packing
// runs with under cfg.
func packInputs(n *netlist.Netlist, cfg Config) ([][]netlist.Edge, packConfig) {
	clusterCap := netlist.Resources{
		LUTs:   max(cfg.BlockCapacity.LUTs/clusterShrink, 1),
		DFFs:   max(cfg.BlockCapacity.DFFs/clusterShrink, 1),
		DSPs:   max(cfg.BlockCapacity.DSPs/clusterShrink, 1),
		BRAMKb: max(cfg.BlockCapacity.BRAMKb/clusterShrink, netlist.BRAMKb),
	}
	return n.AdjacencyCapped(maxFanout, packBoundaryWidth), packConfig{capacity: clusterCap, seed: cfg.Seed}
}

// Partition splits the netlist into exactly numBlocks virtual blocks using
// the Section 4 algorithm. The result may be infeasible (Legal or
// ChannelsOK false) if numBlocks is too small; Auto searches for the
// smallest feasible count.
func Partition(n *netlist.Netlist, numBlocks int, cfg Config) (*Result, error) {
	p, err := prepare(n, cfg)
	if err != nil {
		return nil, err
	}
	return p.partition(numBlocks, p.cfg.Seed)
}

// partition runs the placement/legalization pipeline for one block count.
// The annealing seed is separate from the packing seed so restarts can
// explore different legalizations over the same packing.
func (p *prepared) partition(numBlocks int, seed int64) (*Result, error) {
	cfg := p.cfg
	if numBlocks < 1 {
		return nil, fmt.Errorf("partition: numBlocks must be >= 1, got %d", numBlocks)
	}
	clusters, g := p.clusters, p.g
	res := &Result{NumBlocks: numBlocks, Clusters: clusters, ClusterOf: p.clusterOf}

	// Step (1): unanchored quadratic solve, IO clusters pinned across the
	// placement span.
	nc := len(clusters)
	x := make([]float64, nc)
	y := make([]float64, nc)
	anchorX := make([]float64, nc)
	anchorY := make([]float64, nc)
	beta := make([]float64, nc)
	ioAnchors := map[int]float64{}
	var ioClusters []int
	for _, cl := range clusters {
		if cl.HasIO {
			ioClusters = append(ioClusters, cl.ID)
		}
	}
	for i, ci := range ioClusters {
		if len(ioClusters) == 1 {
			ioAnchors[ci] = float64(numBlocks) / 2
		} else {
			ioAnchors[ci] = float64(numBlocks) * float64(i) / float64(len(ioClusters)-1)
		}
	}
	if err := quadraticSolve(g, x, y, anchorX, anchorY, beta, ioAnchors, 1.0); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed + 1))
	var best *legalizer
	bestWL := 0.0
	bestFeasible := false
	betaVal := 0.0
	// Infeasible block counts rarely become feasible after the first few
	// anchored iterations; cap the effort spent proving infeasibility.
	const infeasibleIterCap = 3
	for iter := 1; iter <= maxIterations; iter++ {
		res.Iterations = iter
		// Step (2): legalize onto blocks and refine. The channel-repair
		// pass consolidates narrow cut nets so blocks stay within their
		// latency-insensitive bandwidth budget.
		leg := newLegalizer(clusters, g, numBlocks, cfg.BlockCapacity, x, y, rng)
		if _, ran := leg.anneal(annealSweeps); ran {
			res.Stochastic = true
		}
		leg.refine(4)
		leg.repairChannels(p.spans, 6)
		legalWL := leg.legalWirelength()
		cin, cout := channelCounts(p.spans, leg.assign, numBlocks)
		feasible := leg.isLegal() && violations(cin, cout) == 0
		better := best == nil ||
			(feasible && !bestFeasible) ||
			(feasible == bestFeasible && legalWL < bestWL)
		if better && leg.isLegal() {
			best, bestWL, bestFeasible = leg, legalWL, feasible
		}
		// Step (4): β grows slowly across iterations to pull clusters away
		// from over-utilized blocks.
		if betaVal == 0 {
			betaVal = 0.05 * (1 + g.deg[maxDegIdx(g)]) / float64(nc)
		} else {
			betaVal *= 2
		}
		// Step (3): anchor every cluster to its legalized block center
		// (pseudo clusters/connections, Eq. 4) and re-solve.
		for ci := range clusters {
			anchorX[ci], anchorY[ci] = blockCenter(leg.assign[ci])
			beta[ci] = betaVal
		}
		if err := quadraticSolve(g, x, y, anchorX, anchorY, beta, ioAnchors, 1.0); err != nil {
			return nil, err
		}
		relaxedWL := g.wirelength(x, y)
		if legalWL == 0 {
			break // nothing cut at all: done
		}
		gap := (legalWL - relaxedWL) / legalWL
		if gap < gapTol && bestFeasible {
			break
		}
		if !bestFeasible && iter >= infeasibleIterCap {
			break
		}
	}
	if best == nil {
		// No legal assignment found; report the last attempt for
		// diagnostics.
		best = newLegalizer(clusters, g, numBlocks, cfg.BlockCapacity, x, y, rng)
		_, _ = best.anneal(annealSweeps * 2)
		best.refine(4)
		best.repairChannels(p.spans, 6)
	}
	p.finalize(res, best)
	return res, nil
}

func maxDegIdx(g *clusterGraph) int {
	idx := 0
	for i, d := range g.deg {
		if d > g.deg[idx] {
			idx = i
		}
	}
	return idx
}

// finalize converts the legalizer state into the public result.
func (p *prepared) finalize(res *Result, leg *legalizer) {
	n := p.n
	res.BlockOf = leg.assign
	res.Usage = leg.usage
	res.Legal = leg.isLegal()
	res.CellBlock = make([]int, n.NumCells())
	for c := range res.CellBlock {
		res.CellBlock[c] = leg.assign[res.ClusterOf[c]]
	}
	res.CutWidth = n.CutWidth(res.CellBlock)
	res.PerBlockInBits, res.PerBlockOutBits = channelCounts(p.spans, leg.assign, res.NumBlocks)
	res.ChannelsOK = violations(res.PerBlockInBits, res.PerBlockOutBits) == 0
}

// Auto finds the smallest feasible virtual-block count: it starts from the
// resource lower bound and increases until the Section 4 partitioner
// produces a partition that satisfies both capacity and channel-bandwidth
// budgets. maxBlocks bounds the search (0 means 64).
func Auto(n *netlist.Netlist, cfg Config, maxBlocks int) (*Result, error) {
	p, err := prepare(n, cfg)
	if err != nil {
		return nil, err
	}
	cfg = p.cfg
	if maxBlocks == 0 {
		maxBlocks = 64
	}
	lb := n.Resources().BlocksNeeded(cfg.BlockCapacity)
	if lb == 0 {
		lb = 1
	}
	for k := lb; k <= maxBlocks; k++ {
		for r := 0; r < restarts; r++ {
			res, err := p.partition(k, cfg.Seed+int64(r)*7919)
			if err != nil {
				return nil, err
			}
			if res.Feasible() {
				return res, nil
			}
			if !res.Stochastic {
				break // deterministic outcome: reseeding cannot help
			}
		}
	}
	return nil, fmt.Errorf("%w (searched %d..%d)", ErrNoFeasiblePartition, lb, maxBlocks)
}
