package partition

import (
	"sort"

	"vital/internal/netlist"
)

// netSpan records which clusters a multi-cluster net touches; single-cluster
// nets can never be cut and are dropped. The driver cluster is first.
type netSpan struct {
	width    int
	driver   int   // driver cluster
	clusters []int // all distinct clusters on the net (driver included)
}

// buildSpans projects nets onto clusters.
func buildSpans(n *netlist.Netlist, clusterOf []int) []netSpan {
	var spans []netSpan
	seen := map[int]bool{}
	for i := range n.Nets {
		t := &n.Nets[i]
		if t.Driver == netlist.NoCell {
			continue
		}
		dc := clusterOf[t.Driver]
		clear(seen)
		seen[dc] = true
		cl := []int{dc}
		for _, s := range t.Sinks {
			c := clusterOf[s]
			if !seen[c] {
				seen[c] = true
				cl = append(cl, c)
			}
		}
		if len(cl) > 1 {
			spans = append(spans, netSpan{width: t.Width, driver: dc, clusters: cl})
		}
	}
	return spans
}

// channelCounts computes per-block cut bandwidth in bits (ingress and
// egress) for the current assignment: a cut net contributes its width to
// every foreign block it enters and once to its driver block's egress.
// Nets narrower than channelNetMinWidth are sideband signals (enables,
// status bits): the interface generator aggregates them into the shared
// control channel, so they do not consume data-channel bandwidth.
func channelCounts(spans []netSpan, assign []int, numBlocks int) (in, out []int) {
	in = make([]int, numBlocks)
	out = make([]int, numBlocks)
	for i := range spans {
		spanContribution(&spans[i], assign, in, out, +1)
	}
	return in, out
}

// spanContribution adds (sign=+1) or removes (sign=-1) one span's cut
// contribution to the per-block ingress/egress bit counts.
func spanContribution(sp *netSpan, assign []int, in, out []int, sign int) {
	if sp.width < channelNetMinWidth {
		return
	}
	db := assign[sp.driver]
	entered := false
	for _, c := range sp.clusters {
		b := assign[c]
		if b == db {
			continue
		}
		dup := false
		for _, c2 := range sp.clusters {
			if c2 == c {
				break
			}
			if assign[c2] == b {
				dup = true
				break
			}
		}
		if !dup {
			in[b] += sign * sp.width
			entered = true
		}
	}
	if entered {
		out[db] += sign * sp.width
	}
}

// violations sums how far the per-block cut bandwidth exceeds the budget.
func violations(in, out []int) int {
	v := 0
	for b := range in {
		v += max(in[b]-maxCutInBits, 0) + max(out[b]-maxCutOutBits, 0)
	}
	return v
}

// repairChannels greedily consolidates cut nets so that every block's
// ingress/egress cut bandwidth fits the latency-insensitive channel budget.
// Narrow nets are attacked first (they contribute channels while carrying
// little bandwidth, so merging them is nearly free). Moves respect block
// capacity; the pass stops when violations reach zero or no move helps.
// Bookkeeping is incremental: only the spans incident to moved clusters are
// re-evaluated.
func (l *legalizer) repairChannels(spans []netSpan, passes int) {
	// Index spans by cluster for incremental updates.
	clusterSpans := make([][]int, len(l.clusters))
	for si := range spans {
		for _, c := range spans[si].clusters {
			clusterSpans[c] = append(clusterSpans[c], si)
		}
	}
	in, out := channelCounts(spans, l.assign, l.numBlock)
	cur := violations(in, out)

	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].width < spans[order[b]].width })

	for p := 0; p < passes && cur > 0; p++ {
		improved := false
		for _, si := range order {
			sp := &spans[si]
			if sp.width < channelNetMinWidth {
				continue
			}
			blocks := map[int]netlist.Resources{}
			for _, c := range sp.clusters {
				b := l.assign[c]
				blocks[b] = blocks[b].Add(l.clusters[c].Res)
			}
			if len(blocks) < 2 {
				continue
			}
			// Candidate targets: consolidate the whole net into the block
			// already carrying the most of it.
			type cand struct {
				block int
				res   netlist.Resources
			}
			var cands []cand
			for b, r := range blocks {
				cands = append(cands, cand{b, r})
			}
			sort.Slice(cands, func(a, b int) bool {
				if cands[a].res.LUTs != cands[b].res.LUTs {
					return cands[a].res.LUTs > cands[b].res.LUTs
				}
				return cands[a].block < cands[b].block
			})
			for _, target := range cands {
				if newViol, ok := l.tryConsolidate(sp, target.block, spans, clusterSpans, in, out, cur); ok {
					cur = newViol
					improved = true
					break
				}
			}
			if cur == 0 {
				return
			}
		}
		if !improved {
			return
		}
	}
}

// tryConsolidate moves every cluster of the span outside target into
// target, if capacity allows and total channel violations strictly
// decrease. The in/out arrays are updated incrementally; on rejection the
// move is fully reverted. It returns the new violation total and whether
// the move was kept.
func (l *legalizer) tryConsolidate(sp *netSpan, target int, spans []netSpan, clusterSpans [][]int, in, out []int, curViol int) (int, bool) {
	var movers []int
	var need netlist.Resources
	for _, c := range sp.clusters {
		if l.assign[c] != target {
			movers = append(movers, c)
			need = need.Add(l.clusters[c].Res)
		}
	}
	if len(movers) == 0 {
		return curViol, false
	}
	if !l.usage[target].Add(need).FitsIn(l.capacity) {
		return curViol, false
	}
	// Collect affected spans (dedup via stamp map).
	affected := map[int]bool{}
	for _, c := range movers {
		for _, si := range clusterSpans[c] {
			affected[si] = true
		}
	}
	apply := func(toBlocks []int) {
		for si := range affected {
			spanContribution(&spans[si], l.assign, in, out, -1)
		}
		for i, c := range movers {
			from := l.assign[c]
			l.usage[from] = l.usage[from].Sub(l.clusters[c].Res)
			l.assign[c] = toBlocks[i]
			l.usage[toBlocks[i]] = l.usage[toBlocks[i]].Add(l.clusters[c].Res)
		}
		for si := range affected {
			spanContribution(&spans[si], l.assign, in, out, +1)
		}
	}
	prev := make([]int, len(movers))
	toTarget := make([]int, len(movers))
	for i, c := range movers {
		prev[i] = l.assign[c]
		toTarget[i] = target
	}
	apply(toTarget)
	if v := violations(in, out); v < curViol {
		return v, true
	}
	apply(prev)
	return curViol, false
}
