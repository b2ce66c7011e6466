package cpu

import (
	"fmt"
	"math/rand"
	"testing"
)

// refITLB is the original map-based iTLB, kept as the reference model for
// the flat one: page number -> last-use clock, with a full map walk on
// every miss to find the least recently used victim.
type refITLB struct {
	pages    map[uint32]uint64
	cap      int
	clock    uint64
	accesses uint64
	misses   uint64
}

func newRefITLB(entries int) *refITLB {
	return &refITLB{pages: make(map[uint32]uint64, entries), cap: entries}
}

func (t *refITLB) access(addr uint32) bool {
	page := addr >> 12
	t.clock++
	t.accesses++
	if _, ok := t.pages[page]; ok {
		t.pages[page] = t.clock
		return false
	}
	t.misses++
	if len(t.pages) >= t.cap {
		var victim uint32
		oldest := ^uint64(0)
		for pg, use := range t.pages {
			if use < oldest {
				oldest, victim = use, pg
			}
		}
		delete(t.pages, victim)
	}
	t.pages[page] = t.clock
	return true
}

func (t *refITLB) flush() { t.pages = make(map[uint32]uint64, t.cap) }

// TestITLBMatchesReferenceModel drives the flat iTLB and the map-based
// reference with the same random page streams, with flushes interleaved,
// and requires the same hit/miss verdict on every access and the same
// counters at the end. The page pool is a little larger than the capacity,
// so the streams mix hits, cold misses and LRU evictions.
func TestITLBMatchesReferenceModel(t *testing.T) {
	for _, entries := range []int{1, 2, 3, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", entries, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				flat, ref := newITLB(entries), newRefITLB(entries)
				pool := entries + 1 + rng.Intn(2*entries)
				for i := 0; i < 20_000; i++ {
					if rng.Intn(500) == 0 {
						flat.flush()
						ref.flush()
					}
					addr := uint32(rng.Intn(pool))<<12 | uint32(rng.Intn(1<<12))
					if got, want := flat.access(addr), ref.access(addr); got != want {
						t.Fatalf("access %d (%#x): flat missed=%v, reference missed=%v", i, addr, got, want)
					}
				}
				if flat.accesses != ref.accesses || flat.misses != ref.misses {
					t.Errorf("counters: flat %d/%d, reference %d/%d (accesses/misses)",
						flat.accesses, flat.misses, ref.accesses, ref.misses)
				}
			})
		}
	}
}

// BenchmarkITLBAccess times one iTLB access at the default 64 entries on
// two fetch-line streams: "sequential" walks 32 contiguous code pages line
// by line (every access after the first lap hits, mostly in the MRU slot),
// and "scattered" visits random pages of a 16 MiB range, the way naive ILR
// spreads code (nearly every access misses and evicts).
//
//	go test ./internal/cpu -run '^$' -bench ITLBAccess
func BenchmarkITLBAccess(b *testing.B) {
	const lines = 1 << 12
	sequential := make([]uint32, lines)
	for i := range sequential {
		sequential[i] = 0x10000 + uint32(i%(32<<6))<<6
	}
	rng := rand.New(rand.NewSource(1))
	scattered := make([]uint32, lines)
	for i := range scattered {
		scattered[i] = uint32(rng.Intn(16<<20)) &^ 63
	}
	for _, s := range []struct {
		name  string
		addrs []uint32
	}{{"sequential", sequential}, {"scattered", scattered}} {
		b.Run(s.name, func(b *testing.B) {
			t := newITLB(DefaultConfig(ModeBaseline).ITLBEntries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.access(s.addrs[i&(lines-1)])
			}
		})
	}
}
