package cpu

// This file implements the front-end predictors. Everything is indexed with
// the de-randomized (original-space) PC by default — the key property that
// keeps VCFR's prediction accuracy identical to the baseline's (Sec. IV-D).
// Targets are stored as (orig, rand) pairs so that a correct prediction
// redirects the fetch stream in the original space without consulting the
// DRC, while execution verifies the prediction against the randomized
// target it computed.

// BPredStats counts predictor events.
type BPredStats struct {
	CondLookups   uint64
	CondMispred   uint64 // wrong direction
	BTBLookups    uint64
	BTBMisses     uint64
	BTBWrongTgt   uint64 // hit with a stale target
	RASPushes     uint64
	RASPops       uint64
	RASMispred    uint64
	IndirectWrong uint64
}

// CondAccuracy returns the conditional direction-prediction accuracy.
func (s BPredStats) CondAccuracy() float64 {
	if s.CondLookups == 0 {
		return 0
	}
	return 1 - float64(s.CondMispred)/float64(s.CondLookups)
}

// gshare is a 2-level adaptive direction predictor: global history XOR PC
// indexing a table of 2-bit saturating counters.
type gshare struct {
	history uint32
	mask    uint32
	table   []uint8
}

func newGshare(bits int) *gshare {
	return &gshare{
		mask:  (1 << bits) - 1,
		table: make([]uint8, 1<<bits),
	}
}

// reset clears the history and every counter.
func (g *gshare) reset() {
	g.history = 0
	clear(g.table)
}

func (g *gshare) index(pc uint32) uint32 {
	return (g.history ^ (pc >> 1)) & g.mask
}

// predict returns the predicted direction for the branch at pc.
func (g *gshare) predict(pc uint32) bool {
	return g.table[g.index(pc)] >= 2
}

// update trains the counter and shifts the outcome into the history.
func (g *gshare) update(pc uint32, taken bool) {
	i := g.index(pc)
	if taken {
		if g.table[i] < 3 {
			g.table[i]++
		}
	} else {
		if g.table[i] > 0 {
			g.table[i]--
		}
	}
	g.history = (g.history<<1 | b2u(taken)) & g.mask
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// targetPair is a BTB/RAS payload: the same target in both spaces.
type targetPair struct {
	orig uint32
	rand uint32
}

// btbEntry is one BTB way.
type btbEntry struct {
	valid bool
	tag   uint32
	tgt   targetPair
	lru   uint64
}

// btb is a set-associative branch target buffer. Every way lives in one
// flat backing array; set s is the assoc-long run starting at s*assoc.
type btb struct {
	entries []btbEntry
	assoc   int
	mask    uint32
	clock   uint64
}

func newBTB(entries, assoc int) *btb {
	return &btb{entries: make([]btbEntry, entries), assoc: assoc, mask: uint32(entries/assoc - 1)}
}

// reset invalidates every entry and restarts the LRU clock.
func (b *btb) reset() {
	clear(b.entries)
	b.clock = 0
}

// ways returns the set pc indexes and the tag it is stored under.
func (b *btb) ways(pc uint32) ([]btbEntry, uint32) {
	base := int((pc>>1)&b.mask) * b.assoc
	return b.entries[base : base+b.assoc], pc
}

// lookup returns the stored target pair for the transfer at pc.
func (b *btb) lookup(pc uint32) (targetPair, bool) {
	ways, tag := b.ways(pc)
	for w := range ways {
		e := &ways[w]
		if e.valid && e.tag == tag {
			b.clock++
			e.lru = b.clock
			return e.tgt, true
		}
	}
	return targetPair{}, false
}

// install records the taken target pair for the transfer at pc.
func (b *btb) install(pc uint32, tgt targetPair) {
	ways, tag := b.ways(pc)
	b.clock++
	victim, oldest := 0, ^uint64(0)
	for w := range ways {
		e := &ways[w]
		if e.valid && e.tag == tag {
			e.tgt, e.lru = tgt, b.clock
			return
		}
		if !e.valid {
			victim, oldest = w, 0
			break
		}
		if e.lru < oldest {
			victim, oldest = w, e.lru
		}
	}
	ways[victim] = btbEntry{valid: true, tag: tag, tgt: tgt, lru: b.clock}
}

// ras is the return-address stack, holding (orig, rand) pairs. Overflow
// wraps (oldest entries are lost), underflow predicts garbage — both are
// counted as mispredictions when detected, like hardware.
type ras struct {
	stack []targetPair
	top   int // number of live entries, capped at len(stack)
}

func newRAS(depth int) *ras {
	return &ras{stack: make([]targetPair, depth)}
}

// reset empties the stack.
func (r *ras) reset() {
	clear(r.stack)
	r.top = 0
}

func (r *ras) push(t targetPair) {
	copy(r.stack[1:], r.stack[:len(r.stack)-1])
	r.stack[0] = t
	if r.top < len(r.stack) {
		r.top++
	}
}

// pop returns the predicted return target; ok is false on underflow.
func (r *ras) pop() (targetPair, bool) {
	if r.top == 0 {
		return targetPair{}, false
	}
	t := r.stack[0]
	copy(r.stack[:len(r.stack)-1], r.stack[1:])
	r.top--
	return t, true
}
