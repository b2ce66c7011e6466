package cpu

import "vcfr/internal/emu"

// This file implements the De-Randomization Cache of Sec. IV-B: a small,
// unified (randomization + de-randomization) lookup buffer in front of the
// instruction fetch unit. Each entry carries a derand-type tag telling which
// direction it translates, a valid bit, and — for de-rand entries mapping
// un-randomized addresses — the randomized tag that prohibits control
// transfers to safely randomized original addresses.
//
// The DRC is direct-mapped by default (DRCAssoc 1), exactly the paper's
// design point: "We designed DRC as direct mapped cache with small size to
// minimize power consumption... The design doesn't require a fully-
// associative DRC since the miss penalty is marginal." A miss walks the
// table pages through the unified L2 (the table shares L2 with IL1).

// lookupKind distinguishes the two translation directions.
type lookupKind uint8

const (
	lookupDerand lookupKind = iota + 1 // randomized -> original
	lookupRand                         // original -> randomized
)

// DRCStats counts DRC events, the basis of Fig. 14.
type DRCStats struct {
	Lookups       uint64
	Misses        uint64
	RandLookups   uint64 // randomization-direction lookups (e.g. call RAs)
	DerandLookups uint64
	TableWalks    uint64 // L2-backed walks caused by misses
	Installs      uint64

	// Level-2 buffer activity (only with Config.DRC2Entries > 0).
	L2Lookups uint64
	L2Hits    uint64

	Flushes uint64 // context-switch flushes
}

// MissRate returns misses per lookup.
func (s DRCStats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lookups)
}

type drcEntry struct {
	valid  bool
	derand bool // entry type tag
	key    uint32
	val    uint32
	lru    uint64
}

// drc is the lookup buffer. The authoritative translation lives in the
// Translator (the in-memory tables); the drc only caches entries and
// produces timing + statistics.
//
// The paper's design point is one unified buffer with a per-entry type tag
// ("for more efficient usage of silicon resources, we use one unified lookup
// buffer"); the split configuration — two half-size buffers, one per
// direction — exists as the ablation that justifies it.
type drc struct {
	split bool
	// banks holds [0] the unified/derand buffer and [1] the rand buffer when
	// split. Each is one flat array; set s is the assoc-long run starting at
	// s*assoc.
	banks [2][]drcEntry
	masks [2]uint32
	assoc int
	clock uint64
	stats DRCStats
	trans emu.Translator
}

func newDRC(entries, assoc int, split bool, trans emu.Translator) *drc {
	d := &drc{split: split, assoc: assoc, trans: trans}
	mk := func(n int) ([]drcEntry, uint32) {
		nsets := n / assoc
		if nsets < 1 {
			nsets = 1
		}
		return make([]drcEntry, nsets*assoc), uint32(nsets - 1)
	}
	if split {
		d.banks[0], d.masks[0] = mk(entries / 2)
		d.banks[1], d.masks[1] = mk(entries / 2)
	} else {
		d.banks[0], d.masks[0] = mk(entries)
	}
	return d
}

// rebind empties the buffer and restarts its LRU clock for a new
// translator, keeping the counters: the state of a just-built DRC over
// trans, as far as any later lookup can tell.
func (d *drc) rebind(trans emu.Translator) {
	clear(d.banks[0])
	clear(d.banks[1])
	d.clock = 0
	d.trans = trans
}

func (d *drc) bank(kind lookupKind) int {
	if d.split && kind == lookupRand {
		return 1
	}
	return 0
}

// index hashes a translation key to a set with a single XOR fold — one level
// of gates beyond plain bit selection, still a direct-mapped-friendly
// indexer. The fold matters: randomized-space keys are 8-byte-slot aligned,
// so selecting raw low bits would leave a fraction of the sets permanently
// idle for de-randomization entries.
func (d *drc) index(key uint32, kind lookupKind) uint32 {
	return ((key >> 3) ^ (key >> 11)) & d.masks[d.bank(kind)]
}

// ways returns the set key indexes in kind's bank.
func (d *drc) ways(kind lookupKind, key uint32) []drcEntry {
	base := int(d.index(key, kind)) * d.assoc
	return d.banks[d.bank(kind)][base : base+d.assoc]
}

// lookup translates key in the given direction. hit reports whether the
// translation was resident (a miss still returns the correct translation —
// the table walk fetched it; the pipeline charges the walk latency).
// ok is false when no translation exists at all (un-randomized address).
func (d *drc) lookup(kind lookupKind, key uint32) (val uint32, hit, ok bool) {
	d.stats.Lookups++
	if kind == lookupRand {
		d.stats.RandLookups++
	} else {
		d.stats.DerandLookups++
	}
	ways := d.ways(kind, key)
	d.clock++
	for w := range ways {
		e := &ways[w]
		if e.valid && e.key == key && e.derand == (kind == lookupDerand) {
			e.lru = d.clock
			return e.val, true, true
		}
	}
	d.stats.Misses++
	// Miss: consult the authoritative table (the pipeline charges the L2
	// walk separately via walkLatency).
	switch kind {
	case lookupDerand:
		val, ok = d.trans.ToOrig(key)
	case lookupRand:
		val, ok = d.trans.ToRand(key)
	}
	if !ok {
		// Negative result: nothing to install. The prohibition check for
		// un-randomized addresses is the caller's job (it needs the tag from
		// the tables, not a translation).
		return 0, false, false
	}
	d.install(kind, key, val)
	return val, false, true
}

func (d *drc) install(kind lookupKind, key, val uint32) {
	d.stats.Installs++
	ways := d.ways(kind, key)
	d.clock++
	victim, oldest := 0, ^uint64(0)
	for w := range ways {
		e := &ways[w]
		if !e.valid {
			victim, oldest = w, 0
			break
		}
		if e.lru < oldest {
			victim, oldest = w, e.lru
		}
	}
	ways[victim] = drcEntry{
		valid:  true,
		derand: kind == lookupDerand,
		key:    key,
		val:    val,
		lru:    d.clock,
	}
}

// probe checks residency without consulting the tables or counting a
// top-level lookup (used for the level-2 buffer).
func (d *drc) probe(kind lookupKind, key uint32) (uint32, bool) {
	ways := d.ways(kind, key)
	for w := range ways {
		e := &ways[w]
		if e.valid && e.key == key && e.derand == (kind == lookupDerand) {
			d.clock++
			e.lru = d.clock
			return e.val, true
		}
	}
	return 0, false
}

// flush invalidates every entry — the translation state is process-private,
// so a context switch empties the buffer.
func (d *drc) flush() {
	for b := range d.banks {
		for i := range d.banks[b] {
			d.banks[b][i].valid = false
		}
	}
	d.stats.Flushes++
}
