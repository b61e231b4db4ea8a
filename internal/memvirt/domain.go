package memvirt

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Domain is one application's private virtual address space. User logic
// issues virtual addresses; the service region translates them to physical
// DRAM and monitors every access (Section 3.2: "memory access from
// applications are monitored to ensure a secure execution environment").
type Domain struct {
	App        string
	QuotaBytes uint64

	mu        sync.Mutex
	pages     map[uint64]uint64 // vpn → ppn
	nextVPN   uint64
	allocated uint64
	// tlb caches recent translations (FIFO replacement); the service
	// region answers hits in one cycle and walks the page table on misses.
	tlb      map[uint64]uint64
	tlbQueue []uint64
	// Monitoring counters.
	Reads, Writes, Faults uint64
	BytesRead, BytesWrit  uint64
	TLBHits, TLBMisses    uint64
}

// TLBEntries is the per-domain translation cache size.
const TLBEntries = 64

// DomainStats is one consistent snapshot of a domain's monitoring
// counters, safe to take from metric-scrape callbacks while user logic is
// accessing memory.
type DomainStats struct {
	Reads, Writes, Faults uint64
	BytesRead, BytesWrit  uint64
	TLBHits, TLBMisses    uint64
	AllocatedBytes        uint64
	QuotaBytes            uint64
}

// Stats returns a consistent snapshot of the domain's counters.
func (d *Domain) Stats() DomainStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DomainStats{
		Reads: d.Reads, Writes: d.Writes, Faults: d.Faults,
		BytesRead: d.BytesRead, BytesWrit: d.BytesWrit,
		TLBHits: d.TLBHits, TLBMisses: d.TLBMisses,
		AllocatedBytes: d.allocated,
		QuotaBytes:     d.QuotaBytes,
	}
}

// lookupLocked translates one vpn through the TLB, falling back to the page
// table and filling the cache. Callers hold d.mu.
func (d *Domain) lookupLocked(vpn uint64) (uint64, bool) {
	if ppn, ok := d.tlb[vpn]; ok {
		d.TLBHits++
		return ppn, true
	}
	ppn, ok := d.pages[vpn]
	if !ok {
		return 0, false
	}
	d.TLBMisses++
	if d.tlb == nil {
		d.tlb = make(map[uint64]uint64, TLBEntries)
	}
	if len(d.tlbQueue) >= TLBEntries {
		evict := d.tlbQueue[0]
		d.tlbQueue = d.tlbQueue[1:]
		delete(d.tlb, evict)
	}
	d.tlb[vpn] = ppn
	d.tlbQueue = append(d.tlbQueue, vpn)
	return ppn, true
}

// invalidateTLBLocked drops a cached translation. Callers hold d.mu.
func (d *Domain) invalidateTLBLocked(vpn uint64) {
	if _, ok := d.tlb[vpn]; !ok {
		return
	}
	delete(d.tlb, vpn)
	for i, v := range d.tlbQueue {
		if v == vpn {
			d.tlbQueue = append(d.tlbQueue[:i], d.tlbQueue[i+1:]...)
			break
		}
	}
}

// Manager owns the DRAM and all domains on one board.
type Manager struct {
	DRAM *DRAM

	mu      sync.Mutex
	domains map[string]*Domain
	// owner tracks which domain holds each physical page — the isolation
	// invariant checkable at any time.
	owner map[uint64]string
}

// NewManager builds a manager over the given DRAM.
func NewManager(d *DRAM) *Manager {
	return &Manager{DRAM: d, domains: map[string]*Domain{}, owner: map[uint64]string{}}
}

// CreateDomain registers an application with a DRAM quota.
func (m *Manager) CreateDomain(app string, quotaBytes uint64) (*Domain, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.domains[app]; exists {
		return nil, fmt.Errorf("memvirt: domain %q already exists", app)
	}
	d := &Domain{App: app, QuotaBytes: quotaBytes, pages: map[uint64]uint64{}}
	m.domains[app] = d
	return d, nil
}

// DestroyDomain unmaps everything and returns the pages to the DRAM.
func (m *Manager) DestroyDomain(app string) error {
	m.mu.Lock()
	d, ok := m.domains[app]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("memvirt: no domain %q", app)
	}
	delete(m.domains, app)
	m.mu.Unlock()

	d.mu.Lock()
	defer d.mu.Unlock()
	// Return the pages highest virtual page first, so the pool hands them
	// back out in the order the domain mapped them (and the same run of
	// deploys always lands on the same physical pages).
	vpns := make([]uint64, 0, len(d.pages))
	for vpn := range d.pages {
		vpns = append(vpns, vpn)
	}
	slices.Sort(vpns)
	for i := len(vpns) - 1; i >= 0; i-- {
		ppn := d.pages[vpns[i]]
		m.mu.Lock()
		delete(m.owner, ppn)
		m.mu.Unlock()
		m.DRAM.freePage(ppn)
	}
	d.pages = map[uint64]uint64{}
	return nil
}

// Domain returns a registered domain.
func (m *Manager) Domain(app string) (*Domain, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.domains[app]
	return d, ok
}

// Alloc maps n bytes (rounded up to pages) into the domain and returns the
// starting virtual address.
func (m *Manager) Alloc(app string, n uint64) (uint64, error) {
	d, ok := m.Domain(app)
	if !ok {
		return 0, fmt.Errorf("memvirt: no domain %q", app)
	}
	pages := (n + PageBytes - 1) / PageBytes
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.allocated+pages*PageBytes > d.QuotaBytes {
		return 0, fmt.Errorf("memvirt: domain %q quota exceeded (%d + %d > %d)",
			app, d.allocated, pages*PageBytes, d.QuotaBytes)
	}
	startVPN := d.nextVPN
	mapped := make([]uint64, 0, pages)
	for i := uint64(0); i < pages; i++ {
		ppn, err := m.DRAM.allocPage()
		if err != nil {
			// Roll back partial allocation.
			for j, vpn := 0, startVPN; j < len(mapped); j, vpn = j+1, vpn+1 {
				m.DRAM.freePage(mapped[j])
				delete(d.pages, vpn)
				m.mu.Lock()
				delete(m.owner, mapped[j])
				m.mu.Unlock()
			}
			return 0, err
		}
		d.pages[startVPN+i] = ppn
		mapped = append(mapped, ppn)
		m.mu.Lock()
		m.owner[ppn] = app
		m.mu.Unlock()
	}
	d.nextVPN += pages
	d.allocated += pages * PageBytes
	return startVPN * PageBytes, nil
}

// Free unmaps n bytes (rounded up to whole pages) starting at vaddr,
// invalidates the TLB entries, and returns the physical pages to the DRAM.
// The whole range must currently be mapped.
func (m *Manager) Free(app string, vaddr, n uint64) error {
	d, ok := m.Domain(app)
	if !ok {
		return fmt.Errorf("memvirt: no domain %q", app)
	}
	if n == 0 {
		return nil
	}
	first := vaddr / PageBytes
	last := (vaddr + n - 1) / PageBytes
	d.mu.Lock()
	defer d.mu.Unlock()
	for vpn := first; vpn <= last; vpn++ {
		if _, ok := d.pages[vpn]; !ok {
			return &Fault{Domain: app, VAddr: vpn * PageBytes, Reason: "free of unmapped page"}
		}
	}
	for vpn := first; vpn <= last; vpn++ {
		ppn := d.pages[vpn]
		delete(d.pages, vpn)
		d.invalidateTLBLocked(vpn)
		m.mu.Lock()
		delete(m.owner, ppn)
		m.mu.Unlock()
		m.DRAM.freePage(ppn)
		d.allocated -= PageBytes
	}
	return nil
}

// Translate converts a virtual address to a physical address, faulting on
// unmapped pages.
func (m *Manager) Translate(app string, vaddr uint64) (uint64, error) {
	d, ok := m.Domain(app)
	if !ok {
		return 0, fmt.Errorf("memvirt: no domain %q", app)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ppn, ok := d.lookupLocked(vaddr / PageBytes)
	if !ok {
		d.Faults++
		return 0, &Fault{Domain: app, VAddr: vaddr, Reason: "unmapped page"}
	}
	return ppn*PageBytes + vaddr%PageBytes, nil
}

// Access performs a monitored access of n bytes at vaddr. The whole range
// must be mapped; counters record the traffic.
func (m *Manager) Access(app string, vaddr, n uint64, write bool) error {
	d, ok := m.Domain(app)
	if !ok {
		return fmt.Errorf("memvirt: no domain %q", app)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for page := vaddr / PageBytes; page <= (vaddr+n-1)/PageBytes; page++ {
		if _, ok := d.lookupLocked(page); !ok {
			d.Faults++
			return &Fault{Domain: app, VAddr: page * PageBytes, Write: write, Reason: "unmapped page"}
		}
	}
	if write {
		d.Writes++
		d.BytesWrit += n
	} else {
		d.Reads++
		d.BytesRead += n
	}
	return nil
}

// CheckIsolation verifies the cross-domain invariant: every physical page
// is owned by at most one domain and every mapped page agrees with the
// owner table. It returns the first violation found.
func (m *Manager) CheckIsolation() error {
	m.mu.Lock()
	domains := make([]*Domain, 0, len(m.domains))
	for _, d := range m.domains {
		domains = append(domains, d)
	}
	// Walk domains in name order so a given inconsistent state always
	// reports the same first violation.
	sort.Slice(domains, func(i, j int) bool { return domains[i].App < domains[j].App })
	owner := make(map[uint64]string, len(m.owner))
	for k, v := range m.owner {
		owner[k] = v
	}
	m.mu.Unlock()

	seen := map[uint64]string{}
	for _, d := range domains {
		d.mu.Lock()
		for _, ppn := range d.pages {
			if prev, dup := seen[ppn]; dup {
				d.mu.Unlock()
				return fmt.Errorf("memvirt: physical page %d mapped by both %q and %q", ppn, prev, d.App)
			}
			seen[ppn] = d.App
			if owner[ppn] != d.App {
				d.mu.Unlock()
				return fmt.Errorf("memvirt: owner table says %q for page %d, mapped by %q", owner[ppn], ppn, d.App)
			}
		}
		d.mu.Unlock()
	}
	return nil
}
