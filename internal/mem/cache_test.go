package mem

import "testing"

// flat is a constant-latency terminal level for cache unit tests.
type flat struct {
	latency  int
	accesses uint64
	writes   uint64
}

func (f *flat) Access(addr uint32, write bool) int {
	f.accesses++
	if write {
		f.writes++
	}
	return f.latency
}
func (f *flat) Name() string { return "flat" }

func smallCache(t *testing.T, next Level) *Cache {
	t.Helper()
	// 2 sets x 2 ways x 64B lines = 256 bytes.
	c, err := NewCache(CacheConfig{Name: "t", Size: 256, Assoc: 2, LineSize: 64, Latency: 2}, next)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "zero"},
		{Name: "odd-line", Size: 256, Assoc: 2, LineSize: 48, Latency: 1},
		{Name: "indivisible", Size: 250, Assoc: 2, LineSize: 64, Latency: 1},
		{Name: "sets-not-pow2", Size: 3 * 128, Assoc: 2, LineSize: 64, Latency: 1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", cfg.Name, cfg)
		}
	}
	if _, err := NewCache(CacheConfig{Name: "n", Size: 256, Assoc: 2, LineSize: 64, Latency: 1}, nil); err == nil {
		t.Error("NewCache accepted nil next level")
	}
}

func TestCacheHitMiss(t *testing.T) {
	next := &flat{latency: 10}
	c := smallCache(t, next)
	if lat := c.Access(0x100, false); lat != 12 {
		t.Errorf("cold miss latency = %d, want 2+10", lat)
	}
	if lat := c.Access(0x104, false); lat != 2 {
		t.Errorf("same-line hit latency = %d, want 2", lat)
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if got := s.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v", got)
	}
	if !c.Contains(0x100) || c.Contains(0x200) {
		t.Error("Contains wrong")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	next := &flat{latency: 10}
	c := smallCache(t, next)
	// Set 0 holds lines with (addr>>6)&1 == 0: 0x000, 0x080, 0x100, ...
	c.Access(0x000, false)
	c.Access(0x080, false) // set 0 now full
	c.Access(0x000, false) // touch 0x000: 0x080 is LRU
	c.Access(0x100, false) // evicts 0x080
	if !c.Contains(0x000) {
		t.Error("MRU line evicted")
	}
	if c.Contains(0x080) {
		t.Error("LRU line survived")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestCacheWriteback(t *testing.T) {
	next := &flat{latency: 10}
	c := smallCache(t, next)
	c.Access(0x000, true) // dirty
	c.Access(0x080, false)
	c.Access(0x100, false) // evicts dirty 0x000 -> writeback
	s := c.Stats()
	if s.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", s.Writebacks)
	}
	if next.writes != 1 {
		t.Errorf("next-level writes = %d, want 1", next.writes)
	}
	// Clean eviction: no writeback.
	c.Access(0x180, false) // evicts clean 0x080
	if c.Stats().Writebacks != 1 {
		t.Error("clean eviction caused writeback")
	}
}

func TestCachePrefetch(t *testing.T) {
	next := &flat{latency: 10}
	c := smallCache(t, next)
	c.Prefetch(0x000)
	s := c.Stats()
	if s.PrefetchIssued != 1 || s.Accesses != 0 {
		t.Errorf("prefetch stats = %+v", s)
	}
	if !c.Contains(0x000) {
		t.Error("prefetched line absent")
	}
	// Referencing it makes it useful.
	c.Access(0x000, false)
	if c.Stats().PrefetchUseful != 1 {
		t.Error("prefetch not counted useful")
	}
	// A never-referenced prefetch that gets evicted is useless.
	c.Prefetch(0x080)
	c.Access(0x100, false)
	c.Access(0x180, false) // set 0 full of demand lines; 0x080 evicted
	s = c.Stats()
	if s.PrefetchUseless != 1 {
		t.Errorf("useless prefetches = %d, want 1; stats %+v", s.PrefetchUseless, s)
	}
	if got := s.PrefetchMissRate(); got != 0.5 {
		t.Errorf("prefetch miss rate = %v, want 0.5", got)
	}
	// Prefetching a resident line is a no-op.
	issued := c.Stats().PrefetchIssued
	c.Prefetch(0x100)
	if c.Stats().PrefetchIssued != issued {
		t.Error("prefetch of resident line issued traffic")
	}
}

func TestCacheFlush(t *testing.T) {
	next := &flat{latency: 10}
	c := smallCache(t, next)
	c.Access(0x000, true)
	c.Access(0x040, false)
	c.Flush()
	if c.Contains(0x000) || c.Contains(0x040) {
		t.Error("line survived flush")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("flush writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestCacheSetIndexing(t *testing.T) {
	next := &flat{latency: 10}
	c := smallCache(t, next)
	// 0x000 and 0x040 are different sets in a 2-set cache: both fit with
	// two more ways each.
	c.Access(0x000, false)
	c.Access(0x040, false)
	c.Access(0x080, false)
	c.Access(0x0c0, false)
	for _, a := range []uint32{0x000, 0x040, 0x080, 0x0c0} {
		if !c.Contains(a) {
			t.Errorf("line %#x missing: set indexing broken", a)
		}
	}
}

// recorder is a terminal level that logs every access it sees.
type recorder struct {
	addrs  []uint32
	writes []bool
}

func (r *recorder) Access(addr uint32, write bool) int {
	r.addrs = append(r.addrs, addr)
	r.writes = append(r.writes, write)
	return 10
}
func (r *recorder) Name() string { return "recorder" }

// TestCacheSetsDoNotOverlap fills every way of set 0 with dirty lines in a
// cache sharing one backing array across sets: set 1's lines must stay
// resident, and only set 0's own lines may be evicted.
func TestCacheSetsDoNotOverlap(t *testing.T) {
	// 4 sets x 4 ways x 64B lines; set = line address mod 4.
	c, err := NewCache(CacheConfig{Name: "t", Size: 1024, Assoc: 4, LineSize: 64, Latency: 2}, &flat{latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	set1 := []uint32{0x040, 0x140, 0x240, 0x340}
	for _, a := range set1 {
		c.Access(a, false)
	}
	for i := uint32(0); i < 8; i++ { // two full rounds through set 0
		c.Access(i*0x100, true)
	}
	for _, a := range set1 {
		if !c.Contains(a) {
			t.Errorf("set-1 line %#x evicted by set-0 traffic", a)
		}
	}
	for i := uint32(4); i < 8; i++ {
		if !c.Contains(i * 0x100) {
			t.Errorf("set-0 line %#x missing after filling its set", i*0x100)
		}
	}
	if st := c.Stats(); st.Evictions != 4 || st.Writebacks != 4 {
		t.Errorf("evictions/writebacks = %d/%d, want 4/4 (set 0's first round only)",
			st.Evictions, st.Writebacks)
	}
}

// TestCacheFlushWritebackOrder dirties lines in scrambled order across every
// set: Flush must write each dirty line back to the next level exactly once,
// set by set and way by way within a set, and write back nothing clean.
func TestCacheFlushWritebackOrder(t *testing.T) {
	next := &recorder{}
	// 4 sets x 2 ways x 64B lines; set = line address mod 4.
	c, err := NewCache(CacheConfig{Name: "t", Size: 512, Assoc: 2, LineSize: 64, Latency: 2}, next)
	if err != nil {
		t.Fatal(err)
	}
	// Way assignment follows fill order within a set (cold ways fill from 0).
	for _, a := range []uint32{0x0c0, 0x100, 0x040, 0x1c0, 0x000, 0x140, 0x080} {
		c.Access(a, a != 0x080) // 0x080 stays clean
	}
	next.addrs, next.writes = nil, nil
	c.Flush()
	want := []uint32{0x100, 0x000, 0x040, 0x140, 0x0c0, 0x1c0}
	if len(next.addrs) != len(want) {
		t.Fatalf("flush wrote back %d lines %#x, want %d %#x", len(next.addrs), next.addrs, len(want), want)
	}
	for i, a := range want {
		if next.addrs[i] != a || !next.writes[i] {
			t.Errorf("write-back %d = %#x (write=%v), want %#x (write)", i, next.addrs[i], next.writes[i], a)
		}
	}
	if st := c.Stats(); st.Writebacks != uint64(len(want)) {
		t.Errorf("writebacks = %d, want %d", st.Writebacks, len(want))
	}
	c.Flush()
	if len(next.addrs) != len(want) {
		t.Errorf("second flush wrote back %d more lines, want none", len(next.addrs)-len(want))
	}
}

func TestDRAMRowBuffer(t *testing.T) {
	d := NewDRAM(DRAMConfig{})
	cfg := d.cfg
	// First access: row miss (activate).
	lat1 := d.Access(0x0, false)
	if want := cfg.BusAndCtl + cfg.TRCD + cfg.TCAS; lat1 != want {
		t.Errorf("cold access latency = %d, want %d", lat1, want)
	}
	// Same row: row hit (CAS only).
	lat2 := d.Access(0x40, false)
	if want := cfg.BusAndCtl + cfg.TCAS; lat2 != want {
		t.Errorf("row hit latency = %d, want %d", lat2, want)
	}
	// Same bank, different row: conflict (precharge + activate).
	nbanks := uint32(cfg.Ranks * cfg.BanksPerRank)
	conflictAddr := uint32(cfg.RowBytes) * nbanks
	lat3 := d.Access(conflictAddr, false)
	if want := cfg.BusAndCtl + cfg.TRP + cfg.TRCD + cfg.TCAS; lat3 != want {
		t.Errorf("row conflict latency = %d, want %d", lat3, want)
	}
	s := d.Stats()
	if s.RowHits != 1 || s.RowConflicts != 1 || s.RowMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.RowHitRate() < 0.3 || s.RowHitRate() > 0.34 {
		t.Errorf("hit rate = %v", s.RowHitRate())
	}
}

func TestDRAMRefreshCharged(t *testing.T) {
	d := NewDRAM(DRAMConfig{RefreshEvery: 10})
	base := 0
	for i := 0; i < 10; i++ {
		base = d.Access(0x40*uint32(0), false)
	}
	if d.Stats().Refreshes != 1 {
		t.Errorf("refreshes = %d, want 1", d.Stats().Refreshes)
	}
	_ = base
}

func TestHierarchyComposition(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// IL1 miss flows to L2 (miss) and DRAM.
	lat := h.IL1.Access(0x1000, false)
	if lat < 2+12 {
		t.Errorf("cold fetch latency = %d, implausibly low", lat)
	}
	if h.L2.Stats().Accesses != 1 || h.DRAM.Stats().Accesses != 1 {
		t.Error("miss did not propagate")
	}
	// Second access hits IL1: no new L2 traffic.
	if lat := h.IL1.Access(0x1000, false); lat != 2 {
		t.Errorf("hit latency = %d", lat)
	}
	if h.L2Pressure() != 1 {
		t.Errorf("L2 pressure = %d", h.L2Pressure())
	}
	// DL1 miss to the same line: L2 now has it (shared).
	lat = h.DL1.Access(0x1000, false)
	if lat != 2+12 {
		t.Errorf("DL1 L2-hit latency = %d, want 14", lat)
	}
	if h.DRAM.Stats().Accesses != 1 {
		t.Error("L2 hit went to DRAM")
	}
}

func TestHierarchyRejectsBadConfig(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.L2.Assoc = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("bad L2 accepted")
	}
	cfg = DefaultHierarchyConfig()
	cfg.IL1.LineSize = 48
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("bad IL1 accepted")
	}
	cfg = DefaultHierarchyConfig()
	cfg.DL1.Size = -5
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("bad DL1 accepted")
	}
}

func BenchmarkCacheAccessHit(b *testing.B) {
	next := &flat{latency: 10}
	c, _ := NewCache(CacheConfig{Name: "b", Size: 32 << 10, Assoc: 2, LineSize: 64, Latency: 2}, next)
	c.Access(0x1000, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, false)
	}
}

// BenchmarkNewCache is the construction cost of one cache at the default
// L2 geometry (512 KB, 8-way, 64 B lines: 1024 sets).
//
//	go test ./internal/mem -run '^$' -bench NewCache
func BenchmarkNewCache(b *testing.B) {
	cfg := DefaultHierarchyConfig().L2
	next := &flat{latency: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCache(cfg, next); err != nil {
			b.Fatal(err)
		}
	}
}
