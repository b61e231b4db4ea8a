package sched

import (
	"strconv"

	"vital/internal/telemetry"
)

// opLatencies holds the controller's pre-resolved latency histogram
// handles: resolved once at construction, observed with lock-free atomics
// on every operation, so instrumentation cannot show up in the deploy or
// compile benchmarks.
type opLatencies struct {
	deploy   *telemetry.Histogram
	undeploy *telemetry.Histogram
	relocate *telemetry.Histogram
	drain    *telemetry.Histogram
	evacuate *telemetry.Histogram
	defrag   *telemetry.Histogram
}

// healthValue encodes board health for the vital_board_health gauge.
func healthValue(h BoardHealth) float64 {
	switch h {
	case Healthy:
		return 0
	case Degraded:
		return 1
	default:
		return 2
	}
}

// registerTelemetry resolves the controller's histogram handles and
// registers its one collector. Everything the controller's state implies is
// emitted at scrape time from the snapshot Metrics assembles under a single
// ct.mu hold, the same one JSON /metrics renders. Deploy and undeploy
// therefore do no registry work, and a board or app series exists exactly
// while the board or app does: an undeployed app is not in the snapshot, so
// nothing is emitted for it, and one redeployed under the same name restarts
// its counters at zero (Prometheus counter-reset semantics).
func (ct *Controller) registerTelemetry() {
	r := ct.Reg
	ct.lat = opLatencies{
		deploy:   r.Histogram("vital_deploy_seconds", "Deploy latency: allocation, per-block bitstream relocation, claim and protection-domain provisioning.", nil),
		undeploy: r.Histogram("vital_undeploy_seconds", "Undeploy latency: domain teardown and block release.", nil),
		relocate: r.Histogram("vital_relocate_seconds", "Single-block runtime relocation latency.", nil),
		drain:    r.Histogram("vital_drain_seconds", "Board drain latency (defragmentation).", nil),
		evacuate: r.Histogram("vital_evacuate_seconds", "Failed-board evacuation latency (all resident apps).", nil),
		defrag:   r.Histogram("vital_defrag_seconds", "Incremental defragmentation step latency (bounded block moves).", nil),
	}
	traceEvicted := r.CounterDesc("vital_trace_evicted_total", "Trace segments overwritten by the bounded trace ring — nonzero means GET /trace/{id} answers may be partial.")
	defragMoves := r.CounterDesc("vital_defrag_moves_total", "Blocks relocated by the incremental defragmenter (DefragStep).")
	deployedApps := r.GaugeDesc("vital_deployed_apps", "Applications currently deployed.")
	totalBlocks := r.GaugeDesc("vital_total_blocks", "Physical blocks in the cluster.")
	usedBlocks := r.GaugeDesc("vital_used_blocks", "Physical blocks claimed by deployments.")
	cacheHits := r.CounterDesc("vital_cache_hits_total", "Compile-cache hits.")
	cacheMisses := r.CounterDesc("vital_cache_misses_total", "Compile-cache misses.")
	cacheEntries := r.GaugeDesc("vital_cache_entries", "Compile-cache entries resident.")
	events := r.CounterDesc("vital_events_total", "Controller audit-log events by kind.", "kind")

	boardUsed := r.GaugeDesc("vital_board_used_blocks", "Blocks in use, per board.", "board")
	boardFree := r.GaugeDesc("vital_board_free_blocks", "Allocatable free blocks, per board (0 when the board is not healthy).", "board")
	boardHealth := r.GaugeDesc("vital_board_health", "Board health: 0 healthy, 1 degraded, 2 failed.", "board")
	// Free-run index reads (freerun.go): contiguity shape per board.
	boardLongestRun := r.GaugeDesc("vital_board_longest_free_run", "Longest run of consecutive free blocks on the board (0 when not healthy).", "board")
	boardFreeRuns := r.GaugeDesc("vital_board_free_runs", "Number of free runs on the board — more runs at equal free capacity means more fragmentation.", "board")

	// Placement quality: cluster-wide crossing totals and fragmentation,
	// then per app.
	clusterInterDie := r.GaugeDesc("vital_placement_cluster_inter_die_crossings", "Inter-die channel crossings across all deployments.")
	clusterInterBoard := r.GaugeDesc("vital_placement_cluster_inter_board_crossings", "Inter-board channel crossings across all deployments.")
	fragmentation := r.GaugeDesc("vital_fragmentation_index", "1 − longest free run / free blocks: 0 when free capacity is contiguous.")
	freeContiguity := r.GaugeDesc("vital_free_contiguity_blocks", "Longest run of physically consecutive free blocks cluster-wide.")
	appInterDie := r.GaugeDesc("vital_placement_inter_die_crossings", "Inter-die channel crossings of the app's current placement.", "app")
	appInterBoard := r.GaugeDesc("vital_placement_inter_board_crossings", "Inter-board channel crossings of the app's current placement.", "app")
	appQuality := r.GaugeDesc("vital_placement_quality", "Placement quality in [0,1]: 1 when every channel stays on-die.", "app")

	memRead := r.CounterDesc("vital_mem_read_bytes_total", "Monitored DRAM bytes read through the app's memory domain.", "app")
	memWritten := r.CounterDesc("vital_mem_written_bytes_total", "Monitored DRAM bytes written through the app's memory domain.", "app")
	memFaults := r.CounterDesc("vital_mem_faults_total", "Memory faults (unmapped accesses) in the app's domain.", "app")
	tlbHits := r.CounterDesc("vital_mem_tlb_hits_total", "TLB hits in the app's memory domain.", "app")
	tlbMisses := r.CounterDesc("vital_mem_tlb_misses_total", "TLB misses in the app's memory domain.", "app")
	memAllocated := r.GaugeDesc("vital_mem_allocated_bytes", "DRAM bytes currently mapped in the app's memory domain.", "app")
	nicTx := r.CounterDesc("vital_vnic_tx_frames_total", "Frames transmitted by the app's virtual NIC.", "app")
	nicRx := r.CounterDesc("vital_vnic_rx_frames_total", "Frames received by the app's virtual NIC.", "app")

	r.Collect(func(emit telemetry.Emit) {
		m := ct.Metrics()
		emit(traceEvicted, float64(ct.Tracer.Evicted()))
		emit(defragMoves, float64(ct.defragMoves.Load()))
		emit(deployedApps, float64(m.Deployed))
		emit(totalBlocks, float64(m.TotalBlocks))
		emit(usedBlocks, float64(m.UsedBlocks))
		emit(cacheHits, float64(m.Cache.Hits))
		emit(cacheMisses, float64(m.Cache.Misses))
		emit(cacheEntries, float64(m.Cache.Entries))
		for _, k := range allEventKinds {
			emit(events, float64(m.Events[k]), string(k))
		}
		for b, st := range m.boards {
			board := strconv.Itoa(b)
			emit(boardUsed, float64(st.Used), board)
			emit(boardFree, float64(st.Free), board)
			emit(boardHealth, healthValue(st.Health), board)
			emit(boardLongestRun, float64(st.LongestRun), board)
			emit(boardFreeRuns, float64(st.FreeRuns), board)
		}
		emit(clusterInterDie, float64(m.Placement.InterDieTotal))
		emit(clusterInterBoard, float64(m.Placement.InterBoardTotal))
		emit(fragmentation, m.Placement.FragmentationIndex)
		emit(freeContiguity, float64(m.Placement.LongestFreeRun))
		for i, sc := range m.Placement.Apps {
			emit(appInterDie, float64(sc.InterDie), sc.App)
			emit(appInterBoard, float64(sc.InterBoard), sc.App)
			emit(appQuality, sc.Quality, sc.App)
			ac := m.apps[i]
			emit(memRead, float64(ac.mem.BytesRead), sc.App)
			emit(memWritten, float64(ac.mem.BytesWrit), sc.App)
			emit(memFaults, float64(ac.mem.Faults), sc.App)
			emit(tlbHits, float64(ac.mem.TLBHits), sc.App)
			emit(tlbMisses, float64(ac.mem.TLBMisses), sc.App)
			emit(memAllocated, float64(ac.mem.AllocatedBytes), sc.App)
			emit(nicTx, float64(ac.nic.TxFrames), sc.App)
			emit(nicRx, float64(ac.nic.RxFrames), sc.App)
		}
	})
}

// finishSpan annotates a span with the operation's error, if any, and ends
// it — the shared tail of every instrumented controller operation.
func finishSpan(sp *telemetry.Span, err error) {
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
}
