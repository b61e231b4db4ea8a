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
	// Alpha is the aspect-ratio weight α of Eq. 1/Eq. 3. Zero means 1.0.
	Alpha float64
	// MaxFanout caps net fanout for connectivity analysis (clock/reset
	// trees carry no locality). Zero means 64.
	MaxFanout int
	// PackBoundaryWidth keeps the packing stage from growing clusters
	// across nets at least this wide — wide buses are natural module
	// interfaces. Zero means 128; negative disables the filter.
	PackBoundaryWidth int
	// ClusterShrink divides BlockCapacity to obtain the packing cluster
	// capacity. Zero means 48 (≈48 clusters per full block).
	ClusterShrink int
	// GapTol terminates the anchored iteration when the relative gap
	// between legalized and relaxed wirelength drops below it. Zero means
	// the paper's 20%.
	GapTol float64
	// MaxIterations caps the step (2)/(3) iterations. Zero means 10.
	MaxIterations int
	// AnnealSweeps scales the annealing effort per legalization. Zero
	// means 12.
	AnnealSweeps int
	// MaxCutInBits / MaxCutOutBits bound the total width of cut data nets
	// entering/leaving one virtual block — the block's share of
	// latency-insensitive channel bandwidth. Zero means 448; negative
	// disables the check.
	MaxCutInBits  int
	MaxCutOutBits int
	// ChannelNetMinWidth is the width below which a cut net is treated as
	// a sideband signal aggregated into the shared control channel rather
	// than consuming data-channel bandwidth. Zero means 32; negative
	// counts every net.
	ChannelNetMinWidth int
	// Seed drives all stochastic stages.
	Seed int64
	// Restarts retries with a reseeded annealer when a block count
	// appears infeasible. Zero means 2.
	Restarts int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.MaxFanout == 0 {
		c.MaxFanout = 64
	}
	if c.PackBoundaryWidth == 0 {
		c.PackBoundaryWidth = 128
	}
	if c.ClusterShrink == 0 {
		c.ClusterShrink = 48
	}
	if c.GapTol == 0 {
		c.GapTol = 0.20
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 10
	}
	if c.AnnealSweeps == 0 {
		c.AnnealSweeps = 12
	}
	if c.MaxCutInBits == 0 {
		c.MaxCutInBits = 448
	}
	if c.MaxCutOutBits == 0 {
		c.MaxCutOutBits = 448
	}
	if c.ChannelNetMinWidth == 0 {
		c.ChannelNetMinWidth = 32
	}
	if c.Restarts == 0 {
		c.Restarts = 2
	}
	return c
}

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
	cfg = cfg.withDefaults()
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
		g:         buildClusterGraph(n, clusterOf, len(clusters), cfg.MaxFanout),
		spans:     buildSpans(n, clusterOf),
	}, nil
}

// packInputs returns the capped adjacency and the configuration packing
// runs with under cfg (already defaulted).
func packInputs(n *netlist.Netlist, cfg Config) ([][]netlist.Edge, packConfig) {
	clusterCap := netlist.Resources{
		LUTs:   max(cfg.BlockCapacity.LUTs/cfg.ClusterShrink, 1),
		DFFs:   max(cfg.BlockCapacity.DFFs/cfg.ClusterShrink, 1),
		DSPs:   max(cfg.BlockCapacity.DSPs/cfg.ClusterShrink, 1),
		BRAMKb: max(cfg.BlockCapacity.BRAMKb/cfg.ClusterShrink, netlist.BRAMKb),
	}
	return n.AdjacencyCapped(cfg.MaxFanout, cfg.PackBoundaryWidth), packConfig{
		capacity:  clusterCap,
		maxFanout: cfg.MaxFanout,
		seed:      cfg.Seed,
		mergeFrac: 0.25,
	}
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
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		res.Iterations = iter
		// Step (2): legalize onto blocks and refine. The channel-repair
		// pass consolidates narrow cut nets so blocks stay within their
		// latency-insensitive bandwidth budget.
		leg := newLegalizer(clusters, g, numBlocks, cfg.BlockCapacity, cfg.Alpha, x, y, rng)
		if _, ran := leg.anneal(cfg.AnnealSweeps); ran {
			res.Stochastic = true
		}
		leg.refine(4)
		leg.repairChannels(p.spans, cfg.MaxCutInBits, cfg.MaxCutOutBits, cfg.ChannelNetMinWidth, 6)
		legalWL := leg.legalWirelength()
		cin, cout := channelCounts(p.spans, leg.assign, numBlocks, cfg.ChannelNetMinWidth)
		feasible := leg.isLegal() && violations(cin, cout, cfg.MaxCutInBits, cfg.MaxCutOutBits) == 0
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
		relaxedWL := g.wirelength(x, y, cfg.Alpha)
		if legalWL == 0 {
			break // nothing cut at all: done
		}
		gap := (legalWL - relaxedWL) / legalWL
		if gap < cfg.GapTol && bestFeasible {
			break
		}
		if !bestFeasible && iter >= infeasibleIterCap {
			break
		}
	}
	if best == nil {
		// No legal assignment found; report the last attempt for
		// diagnostics.
		best = newLegalizer(clusters, g, numBlocks, cfg.BlockCapacity, cfg.Alpha, x, y, rng)
		_, _ = best.anneal(cfg.AnnealSweeps * 2)
		best.refine(4)
		best.repairChannels(p.spans, cfg.MaxCutInBits, cfg.MaxCutOutBits, cfg.ChannelNetMinWidth, 6)
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
	n, cfg := p.n, p.cfg
	res.BlockOf = leg.assign
	res.Usage = leg.usage
	res.Legal = leg.isLegal()
	res.CellBlock = make([]int, n.NumCells())
	for c := range res.CellBlock {
		res.CellBlock[c] = leg.assign[res.ClusterOf[c]]
	}
	res.CutWidth = n.CutWidth(res.CellBlock)
	res.PerBlockInBits, res.PerBlockOutBits = channelCounts(p.spans, leg.assign, res.NumBlocks, cfg.ChannelNetMinWidth)
	res.ChannelsOK = violations(res.PerBlockInBits, res.PerBlockOutBits, cfg.MaxCutInBits, cfg.MaxCutOutBits) == 0
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
		for r := 0; r < cfg.Restarts; r++ {
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
