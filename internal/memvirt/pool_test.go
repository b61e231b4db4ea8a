package memvirt

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// referenceDRAM is the eager page pool NewDRAM used to build: an explicit
// free list of every page on the board, filled from the top so that page 0
// is handed out first, with returned pages pushed on its end.
type referenceDRAM struct{ free []uint64 }

func newReferenceDRAM(pages uint64) *referenceDRAM {
	r := &referenceDRAM{free: make([]uint64, pages)}
	for i := range r.free {
		r.free[i] = pages - 1 - uint64(i)
	}
	return r
}

func (r *referenceDRAM) allocPage() (uint64, error) {
	if len(r.free) == 0 {
		return 0, ErrOutOfMemory
	}
	p := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	return p, nil
}

func (r *referenceDRAM) freePage(ppn uint64) { r.free = append(r.free, ppn) }

// refDomain and refManager mirror Manager's page tables over a
// referenceDRAM, with Manager's errors, so that a stream of operations
// can be checked page by page against the real Manager.
type refDomain struct {
	quota, allocated, nextVPN uint64
	pages                     map[uint64]uint64
}

type refManager struct {
	dram    *referenceDRAM
	domains map[string]*refDomain
}

func (r *refManager) createDomain(app string, quota uint64) error {
	if _, ok := r.domains[app]; ok {
		return fmt.Errorf("memvirt: domain %q already exists", app)
	}
	r.domains[app] = &refDomain{quota: quota, pages: map[uint64]uint64{}}
	return nil
}

func (r *refManager) destroyDomain(app string) error {
	d, ok := r.domains[app]
	if !ok {
		return fmt.Errorf("memvirt: no domain %q", app)
	}
	delete(r.domains, app)
	vpns := make([]uint64, 0, len(d.pages))
	for vpn := range d.pages {
		vpns = append(vpns, vpn)
	}
	slices.Sort(vpns)
	for i := len(vpns) - 1; i >= 0; i-- {
		r.dram.freePage(d.pages[vpns[i]])
	}
	return nil
}

func (r *refManager) alloc(app string, n uint64) (uint64, error) {
	d, ok := r.domains[app]
	if !ok {
		return 0, fmt.Errorf("memvirt: no domain %q", app)
	}
	pages := (n + PageBytes - 1) / PageBytes
	if d.allocated+pages*PageBytes > d.quota {
		return 0, fmt.Errorf("memvirt: domain %q quota exceeded (%d + %d > %d)",
			app, d.allocated, pages*PageBytes, d.quota)
	}
	var mapped []uint64
	for i := uint64(0); i < pages; i++ {
		ppn, err := r.dram.allocPage()
		if err != nil {
			for j, ppn := range mapped {
				r.dram.freePage(ppn)
				delete(d.pages, d.nextVPN+uint64(j))
			}
			return 0, err
		}
		d.pages[d.nextVPN+i] = ppn
		mapped = append(mapped, ppn)
	}
	start := d.nextVPN
	d.nextVPN += pages
	d.allocated += pages * PageBytes
	return start * PageBytes, nil
}

func (r *refManager) free(app string, vaddr, n uint64) error {
	d, ok := r.domains[app]
	if !ok {
		return fmt.Errorf("memvirt: no domain %q", app)
	}
	if n == 0 {
		return nil
	}
	first, last := vaddr/PageBytes, (vaddr+n-1)/PageBytes
	for vpn := first; vpn <= last; vpn++ {
		if _, ok := d.pages[vpn]; !ok {
			return &Fault{Domain: app, VAddr: vpn * PageBytes, Reason: "free of unmapped page"}
		}
	}
	for vpn := first; vpn <= last; vpn++ {
		r.dram.freePage(d.pages[vpn])
		delete(d.pages, vpn)
		d.allocated -= PageBytes
	}
	return nil
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, ErrOutOfMemory) == errors.Is(b, ErrOutOfMemory)
}

// The lazy pool hands out exactly the pages the eager free list did: a
// seeded stream of domain operations over several tenants, run through
// exhaustion (including partial allocations rolled back) and recovery,
// maps every virtual page to the same physical page, leaves the same
// number of pages free and fails with the same errors after every step.
func TestPoolMatchesReference(t *testing.T) {
	const pages = 64
	apps := []string{"a", "b", "c", "d"}
	var ooms, partial, recovered int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newMgr(pages)
		ref := &refManager{dram: newReferenceDRAM(pages), domains: map[string]*refDomain{}}
		type span struct{ vaddr, n uint64 }
		live := map[string][]span{}
		sawOOM := false
		for step := 0; step < 400; step++ {
			app := apps[rng.Intn(len(apps))]
			var op string
			var got, want error
			switch k := rng.Intn(10); {
			case k == 0:
				op = "create"
				quota := uint64(8+rng.Intn(40)) * PageBytes
				_, got = m.CreateDomain(app, quota)
				want = ref.createDomain(app, quota)
			case k == 1:
				op = "destroy"
				got, want = m.DestroyDomain(app), ref.destroyDomain(app)
				delete(live, app)
			case k < 7:
				op = "alloc"
				n := uint64(1+rng.Intn(12))*PageBytes - uint64(rng.Intn(2))*PageBytes/2
				before := m.DRAM.FreePages()
				var gva, wva uint64
				gva, got = m.Alloc(app, n)
				wva, want = ref.alloc(app, n)
				if gva != wva {
					t.Fatalf("seed %d step %d: Alloc(%s, %d) = 0x%x, reference 0x%x", seed, step, app, n, gva, wva)
				}
				switch {
				case got == nil:
					live[app] = append(live[app], span{gva, n})
					if sawOOM {
						recovered++
						sawOOM = false
					}
				case errors.Is(got, ErrOutOfMemory):
					ooms++
					sawOOM = true
					if before > 0 {
						partial++
					}
				}
			default:
				op = "free"
				spans := live[app]
				var s span
				if len(spans) == 0 || rng.Intn(8) == 0 {
					// A range that may not be mapped: the fault must match.
					s = span{uint64(rng.Intn(16)) * PageBytes, uint64(1+rng.Intn(3)) * PageBytes}
				} else {
					i := rng.Intn(len(spans))
					s = spans[i]
					live[app] = append(spans[:i], spans[i+1:]...)
				}
				got, want = m.Free(app, s.vaddr, s.n), ref.free(app, s.vaddr, s.n)
			}
			if !sameError(got, want) {
				t.Fatalf("seed %d step %d: %s(%s) error %v, reference %v", seed, step, op, app, got, want)
			}
			if g, w := m.DRAM.FreePages(), len(ref.dram.free); g != w {
				t.Fatalf("seed %d step %d after %s(%s): FreePages = %d, reference %d", seed, step, op, app, g, w)
			}
			for _, a := range apps {
				d, ok := ref.domains[a]
				md, mok := m.Domain(a)
				if mok != ok {
					t.Fatalf("seed %d step %d after %s(%s): domain %s exists %v, reference %v", seed, step, op, app, a, mok, ok)
				}
				if !ok {
					continue
				}
				if g := md.Stats().AllocatedBytes; g != d.allocated {
					t.Fatalf("seed %d step %d after %s(%s): %s holds %d bytes, reference %d", seed, step, op, app, a, g, d.allocated)
				}
				for vpn, ppn := range d.pages {
					off := vpn * 4099 % PageBytes
					pa, err := m.Translate(a, vpn*PageBytes+off)
					if err != nil || pa != ppn*PageBytes+off {
						t.Fatalf("seed %d step %d after %s(%s): %s vpn %d → 0x%x, %v; reference page %d",
							seed, step, op, app, a, vpn, pa, err, ppn)
					}
				}
			}
			if err := m.CheckIsolation(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
	if ooms == 0 || partial == 0 || recovered == 0 {
		t.Fatalf("stream never exercised exhaustion: %d out-of-memory allocs, %d rolled back partially, %d recoveries",
			ooms, partial, recovered)
	}
}

// A board's pool costs nothing per installed page: building the default
// 128 GiB board allocates less than a kilobyte. The cost is averaged over
// many boards so that an allocation elsewhere in the process during the
// measurement cannot tip it.
func TestNewDRAMAllocatesNoPerPageState(t *testing.T) {
	const boards = 100
	dimms := make([]*DRAM, boards)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range dimms {
		dimms[i] = NewDRAM(128<<30, 19.2)
	}
	runtime.ReadMemStats(&after)
	if got := dimms[0].FreePages(); got != 128<<30/PageBytes {
		t.Fatalf("FreePages = %d, want %d", got, 128<<30/PageBytes)
	}
	if perBoard := (after.TotalAlloc - before.TotalAlloc) / boards; perBoard >= 1<<10 {
		t.Fatalf("NewDRAM(128 GiB) allocated %d bytes, want < 1 KiB", perBoard)
	}
}
