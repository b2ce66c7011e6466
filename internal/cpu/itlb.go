package cpu

// itlb is the fully associative instruction TLB with exact LRU replacement.
// A miss pays the page-walk latency. The randomization tables'
// page-visibility bit lives conceptually in this structure; the pipeline
// enforces it in Step.
//
// Entries are two parallel flat slices (page number, last-use clock) whose
// capacity is the entry count, scanned linearly; mru remembers the last slot touched, so
// the common same-page refetch skips the scan. Clock values are unique, so
// evicting the slot with the smallest use is exactly LRU.
type itlb struct {
	pages    []uint32 // page number per slot
	uses     []uint64 // last-use clock per slot
	mru      int      // slot of the most recent access
	clock    uint64
	accesses uint64
	misses   uint64
}

func newITLB(entries int) *itlb {
	return &itlb{
		pages: make([]uint32, 0, entries),
		uses:  make([]uint64, 0, entries),
	}
}

// access touches the page containing addr and reports whether it missed.
func (t *itlb) access(addr uint32) bool {
	page := addr >> 12
	t.clock++
	t.accesses++
	if t.mru < len(t.pages) && t.pages[t.mru] == page {
		t.uses[t.mru] = t.clock
		return false
	}
	for i, pg := range t.pages {
		if pg == page {
			t.uses[i] = t.clock
			t.mru = i
			return false
		}
	}
	t.misses++
	if len(t.pages) < cap(t.pages) {
		t.mru = len(t.pages)
		t.pages = append(t.pages, page)
		t.uses = append(t.uses, t.clock)
		return true
	}
	victim, oldest := 0, t.uses[0]
	for i, use := range t.uses {
		if use < oldest {
			victim, oldest = i, use
		}
	}
	t.pages[victim], t.uses[victim] = page, t.clock
	t.mru = victim
	return true
}

// reset drops every translation and zeroes the clock and the counters.
func (t *itlb) reset() {
	t.flush()
	t.clock, t.accesses, t.misses = 0, 0, 0
}

// flush drops every translation (context switch, code-page shoot-down).
func (t *itlb) flush() {
	t.pages, t.uses, t.mru = t.pages[:0], t.uses[:0], 0
}
