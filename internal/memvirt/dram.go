// Package memvirt implements the service region's peripheral
// virtualization (Section 3.2): every application accesses on-board DRAM
// through a private virtual address space translated and monitored by the
// system, and reaches the network through a virtual NIC. Domains are fully
// isolated — no physical page is ever mapped by two applications — which is
// part of ViTAL's protection story (Section 3.4).
package memvirt

import (
	"errors"
	"fmt"
	"sync"
)

// PageBytes is the translation granularity (2 MiB pages: accelerator
// buffers are large and a flat table per domain stays small).
const PageBytes = 2 << 20

// DRAM models one board's DRAM: a physical page allocator plus a bandwidth
// figure used by the performance model.
//
// The allocator keeps no per-page state for pages never used: pages
// [fresh, pages) have never been handed out, and freed holds the pages
// returned since, so a board costs the pages in use rather than the DIMMs
// installed.
type DRAM struct {
	CapacityBytes uint64
	BandwidthGBps float64

	mu    sync.Mutex
	pages uint64   // capacity in pages
	fresh uint64   // lowest page never handed out
	freed []uint64 // returned physical page numbers, reused last-in first-out
}

// NewDRAM builds a DRAM model with the given capacity (rounded down to
// whole pages). Pages are handed out in ascending order, 0 first, and a
// returned page is reused before any page never handed out, the most
// recently returned first.
func NewDRAM(capacityBytes uint64, bandwidthGBps float64) *DRAM {
	pages := capacityBytes / PageBytes
	return &DRAM{CapacityBytes: pages * PageBytes, BandwidthGBps: bandwidthGBps, pages: pages}
}

// FreePages returns the number of unallocated physical pages.
func (d *DRAM) FreePages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.freed) + int(d.pages-d.fresh)
}

// ErrOutOfMemory indicates physical DRAM exhaustion.
var ErrOutOfMemory = errors.New("memvirt: out of physical DRAM")

func (d *DRAM) allocPage() (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.freed); n > 0 {
		p := d.freed[n-1]
		d.freed = d.freed[:n-1]
		return p, nil
	}
	if d.fresh == d.pages {
		return 0, ErrOutOfMemory
	}
	p := d.fresh
	d.fresh++
	return p, nil
}

func (d *DRAM) freePage(ppn uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.freed = append(d.freed, ppn)
}

// TransferTime returns the seconds needed to move n bytes at the DRAM's
// bandwidth (the service region shares the physical channel, so this is
// the lower bound a single tenant sees).
func (d *DRAM) TransferTime(n uint64) float64 {
	if d.BandwidthGBps <= 0 {
		return 0
	}
	return float64(n) / (d.BandwidthGBps * 1e9)
}

// Fault is a monitored protection violation.
type Fault struct {
	Domain string
	VAddr  uint64
	Write  bool
	Reason string
}

func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("memvirt: %s fault in domain %s at 0x%x: %s", op, f.Domain, f.VAddr, f.Reason)
}
