// Package mem models the on-chip memory hierarchy of the paper's simulated
// machine (Sec. VI-C): set-associative write-back caches with LRU
// replacement, a next-line instruction prefetcher, and a DDR-style DRAM with
// per-bank open-page row buffers — the XIOSim/Zesto + DRAMSim2 substitute.
//
// Levels compose through the Level interface: an access that misses in one
// level recursively pays for the next. The returned latency is the total
// cycles for the critical path; the pipeline schedules around it.
package mem

import "fmt"

// Level is one level of the memory hierarchy.
type Level interface {
	// Access performs a demand access and returns its latency in cycles.
	Access(addr uint32, write bool) int
	// Name identifies the level in statistics output.
	Name() string
}

// CacheConfig sizes one cache.
type CacheConfig struct {
	Name     string
	Size     int // total bytes
	Assoc    int // ways
	LineSize int // bytes
	Latency  int // hit latency, cycles
}

// Validate checks the geometry.
func (c CacheConfig) Validate() error {
	switch {
	case c.Size <= 0 || c.Assoc <= 0 || c.LineSize <= 0 || c.Latency <= 0:
		return fmt.Errorf("mem: %s: non-positive geometry %+v", c.Name, c)
	case c.Size%(c.Assoc*c.LineSize) != 0:
		return fmt.Errorf("mem: %s: size %d not divisible by assoc*line %d",
			c.Name, c.Size, c.Assoc*c.LineSize)
	case c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("mem: %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	sets := c.Size / (c.Assoc * c.LineSize)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// CacheStats counts cache events.
type CacheStats struct {
	Accesses   uint64 // demand accesses
	Misses     uint64 // demand misses
	Writebacks uint64 // dirty evictions written to the next level
	Evictions  uint64

	PrefetchIssued  uint64 // prefetch fills installed
	PrefetchUseful  uint64 // prefetched lines referenced before eviction
	PrefetchUseless uint64 // prefetched lines evicted unreferenced
}

// MissRate returns demand misses per demand access.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// PrefetchMissRate returns the fraction of prefetched lines that were
// evicted without ever being referenced — wasted prefetches. Lines still
// resident are not counted either way.
func (s CacheStats) PrefetchMissRate() float64 {
	settled := s.PrefetchUseful + s.PrefetchUseless
	if settled == 0 {
		return 0
	}
	return float64(s.PrefetchUseless) / float64(settled)
}

type line struct {
	tag        uint32
	valid      bool
	dirty      bool
	prefetched bool // installed by the prefetcher, unreferenced so far
	lru        uint64
}

// Cache is one set-associative write-back, write-allocate cache level.
// Every line lives in one flat backing array; set s is the Assoc-long run
// starting at s*Assoc (see ways).
type Cache struct {
	cfg      CacheConfig
	next     Level
	lines    []line
	setMask  uint32
	lineBits uint
	clock    uint64 // LRU timestamp source
	stats    CacheStats
}

// NewCache builds a cache backed by next.
func NewCache(cfg CacheConfig, next Level) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if next == nil {
		return nil, fmt.Errorf("mem: %s: nil next level", cfg.Name)
	}
	nsets := cfg.Size / (cfg.Assoc * cfg.LineSize)
	c := &Cache{
		cfg:     cfg,
		next:    next,
		lines:   make([]line, nsets*cfg.Assoc),
		setMask: uint32(nsets - 1),
	}
	for l := cfg.LineSize; l > 1; l >>= 1 {
		c.lineBits++
	}
	return c, nil
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

func (c *Cache) index(addr uint32) (set uint32, tag uint32) {
	lineAddr := addr >> c.lineBits
	return lineAddr & c.setMask, lineAddr >> 0
}

// ways returns the lines of one set.
func (c *Cache) ways(set uint32) []line {
	base := int(set) * c.cfg.Assoc
	return c.lines[base : base+c.cfg.Assoc]
}

// lookup finds the way of a set holding tag, or -1.
func lookup(ways []line, tag uint32) int {
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			return w
		}
	}
	return -1
}

// victim picks the LRU way in a set.
func victim(ways []line) int {
	v, oldest := 0, ^uint64(0)
	for w := range ways {
		l := &ways[w]
		if !l.valid {
			return w
		}
		if l.lru < oldest {
			oldest, v = l.lru, w
		}
	}
	return v
}

// evict retires a victim line, accounting write-backs and prefetch waste.
func (c *Cache) evict(l *line) {
	if !l.valid {
		return
	}
	c.stats.Evictions++
	if l.prefetched {
		c.stats.PrefetchUseless++
	}
	if l.dirty {
		c.stats.Writebacks++
		// Write-back cost is off the critical path (write buffer); the next
		// level still sees the traffic. The tag is the whole line address.
		c.next.Access(l.tag<<c.lineBits, true)
	}
	l.valid = false
}

// Access performs a demand read or write.
func (c *Cache) Access(addr uint32, write bool) int {
	c.clock++
	c.stats.Accesses++
	set, tag := c.index(addr)
	ways := c.ways(set)
	if w := lookup(ways, tag); w >= 0 {
		l := &ways[w]
		l.lru = c.clock
		if l.prefetched {
			c.stats.PrefetchUseful++
			l.prefetched = false
		}
		if write {
			l.dirty = true
		}
		return c.cfg.Latency
	}
	c.stats.Misses++
	lat := c.cfg.Latency + c.next.Access(addr, false)
	l := &ways[victim(ways)]
	c.evict(l)
	*l = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return lat
}

// Contains probes for addr without touching LRU state or statistics.
func (c *Cache) Contains(addr uint32) bool {
	set, tag := c.index(addr)
	return lookup(c.ways(set), tag) >= 0
}

// Prefetch installs addr's line if absent, fetching it from the next level.
// Prefetches are off the demand critical path: no latency is returned, but
// the next level sees the traffic and the fill can displace a line.
func (c *Cache) Prefetch(addr uint32) {
	set, tag := c.index(addr)
	ways := c.ways(set)
	if lookup(ways, tag) >= 0 {
		return
	}
	c.clock++
	c.stats.PrefetchIssued++
	c.next.Access(addr, false)
	l := &ways[victim(ways)]
	c.evict(l)
	*l = line{tag: tag, valid: true, prefetched: true, lru: c.clock}
}

// Reset returns the cache to its just-built state: every line invalid, the
// LRU clock and the counters zero. Unlike Flush it writes nothing back; it
// is how a recycled hierarchy starts a new, unrelated run.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock = 0
	c.stats = CacheStats{}
}

// Flush invalidates every line, writing back dirty ones in set-major order.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.evict(&c.lines[i])
	}
}
