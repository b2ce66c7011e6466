// Package stats is the simulator's one measurement spine: a typed counter
// registry that every subsystem (cpu, mem, emu, ilr, power, the harness, the
// vcfrd service) registers its existing stat structs into, and that every
// consumer (text reports, the results envelope's interval series, Prometheus
// /metrics) derives from.
//
// The design constraint is the simulate hot loop: counters stay plain struct
// fields (`p.stats.Cycles += cost`) — the registry holds *pointers* to those
// fields, so registration adds zero allocation and zero indirection to the
// paths that increment. Reading is the only thing that goes through the
// registry: Snapshot copies every value at one instant, and Delta subtracts
// two snapshots to produce a per-window view.
//
// Naming scheme (see docs/ARCHITECTURE.md "Statistics spine"): hierarchical
// dotted lower-case names, subsystem first — cpu.cycles, cpu.stall.fetch,
// bpred.btb.misses, mem.il1.misses, dram.row_conflicts, drc.table_walks,
// emu.instructions, ilr.entropy_bits, power.total. A name is registered
// exactly once per registry; duplicate registration panics at construction
// time, which is what keeps the three consumers from drifting apart.
package stats

import "fmt"

// Kind classifies a registered value for consumers that care (the Prometheus
// renderer maps KindCounter to `counter` + a `_total` suffix, everything else
// to `gauge`).
type Kind int

// Value kinds.
const (
	// KindCounter is a monotonically non-decreasing uint64 (the hardware
	// counters). Delta subtracts counters window-over-window.
	KindCounter Kind = iota
	// KindGauge is a signed instantaneous value (queue depths, cache bytes).
	// Delta carries the newer value through unchanged.
	KindGauge
	// KindFloat is a float64 derived quantity (energy picojoules, entropy
	// bits). Delta carries the newer value through unchanged.
	KindFloat
)

// Desc describes one registered value: its hierarchical dotted name, a help
// string (reused verbatim as the Prometheus HELP line), its kind, and an
// optional label pair rendered into Prometheus series (e.g. state="queued",
// or core="1" for per-core cluster registries).
type Desc struct {
	Name   string
	Help   string
	Kind   Kind
	Labels string // rendered Prometheus label list without braces; "" = none
}

// key is the identity a Desc registers under: name alone, or name plus the
// label set when several series share one metric name.
func (d Desc) key() string {
	if d.Labels == "" {
		return d.Name
	}
	return d.Name + "{" + d.Labels + "}"
}

type entry struct {
	desc Desc
	u    *uint64  // KindCounter
	g    *int64   // KindGauge
	gi   *int     // KindGauge registered from an int field (ilr.Stats)
	f    *float64 // KindFloat
}

// Registry is an ordered collection of registered counters. The zero value
// is not usable; construct with New or NewLabeled. Registration is not
// concurrency-safe (do it at construction time); Snapshot may race with
// writers by design — simulator counters are single-writer and torn reads of
// in-flight uint64 increments are acceptable for sampling, while the server
// snapshots under its own metrics mutex.
type Registry struct {
	labels  string // registry-wide label list applied to every entry
	entries []entry
	index   map[string]int
	descs   []Desc // built lazily on first Snapshot, shared by all snapshots
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{index: make(map[string]int)}
}

// NewLabeled returns an empty registry whose every entry carries the given
// key="value" pairs (alternating key, value arguments) — the per-core and
// per-tenant dimensions multi-core clusters use.
func NewLabeled(pairs ...string) *Registry {
	if len(pairs) == 0 || len(pairs)%2 != 0 {
		panic("stats: NewLabeled needs alternating key, value pairs")
	}
	r := New()
	for i := 0; i < len(pairs); i += 2 {
		r.labels = joinLabels(r.labels, fmt.Sprintf("%s=%q", pairs[i], pairs[i+1]))
	}
	return r
}

// Labels returns the registry-wide label list ("" when unlabeled).
func (r *Registry) Labels() string { return r.labels }

// Len returns the number of registered entries.
func (r *Registry) Len() int { return len(r.entries) }

func (r *Registry) add(e entry) {
	e.desc.Labels = joinLabels(r.labels, e.desc.Labels)
	k := e.desc.key()
	if _, dup := r.index[k]; dup {
		panic(fmt.Sprintf("stats: duplicate registration of %q", k))
	}
	r.index[k] = len(r.entries)
	r.entries = append(r.entries, e)
	r.descs = nil // invalidate the shared descriptor cache
}

func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "," + b
	}
}

// Counter registers a monotonic uint64 counter by pointer.
func (r *Registry) Counter(name, help string, v *uint64) {
	if v == nil {
		panic(fmt.Sprintf("stats: nil counter %q", name))
	}
	r.add(entry{desc: Desc{Name: name, Help: help, Kind: KindCounter}, u: v})
}

// CounterL is Counter with an entry-level label pair (several series sharing
// one metric name, e.g. jobs.state{state="queued"}).
func (r *Registry) CounterL(name, labels, help string, v *uint64) {
	if v == nil {
		panic(fmt.Sprintf("stats: nil counter %q", name))
	}
	r.add(entry{desc: Desc{Name: name, Help: help, Kind: KindCounter, Labels: labels}, u: v})
}

// Gauge registers a signed instantaneous value by pointer.
func (r *Registry) Gauge(name, help string, v *int64) {
	if v == nil {
		panic(fmt.Sprintf("stats: nil gauge %q", name))
	}
	r.add(entry{desc: Desc{Name: name, Help: help, Kind: KindGauge}, g: v})
}

// GaugeL is Gauge with an entry-level label pair.
func (r *Registry) GaugeL(name, labels, help string, v *int64) {
	if v == nil {
		panic(fmt.Sprintf("stats: nil gauge %q", name))
	}
	r.add(entry{desc: Desc{Name: name, Help: help, Kind: KindGauge, Labels: labels}, g: v})
}

// Int registers a signed instantaneous value held in a plain int field
// (ilr.Stats counts in ints); it reads as a KindGauge.
func (r *Registry) Int(name, help string, v *int) {
	if v == nil {
		panic(fmt.Sprintf("stats: nil int %q", name))
	}
	r.add(entry{desc: Desc{Name: name, Help: help, Kind: KindGauge}, gi: v})
}

// Float registers a float64 value by pointer.
func (r *Registry) Float(name, help string, v *float64) {
	if v == nil {
		panic(fmt.Sprintf("stats: nil float %q", name))
	}
	r.add(entry{desc: Desc{Name: name, Help: help, Kind: KindFloat}, f: v})
}

// Scope returns a registrar that prefixes every name with prefix + "." —
// how a struct registers the same fields under mem.il1 in one cache and
// mem.dl1 in another.
func (r *Registry) Scope(prefix string) Scope {
	return Scope{r: r, prefix: prefix + "."}
}

// Scope is a prefixing view of a Registry.
type Scope struct {
	r      *Registry
	prefix string
}

// Counter registers prefix.name as a monotonic counter.
func (s Scope) Counter(name, help string, v *uint64) {
	s.r.Counter(s.prefix+name, help, v)
}

// Gauge registers prefix.name as a signed gauge.
func (s Scope) Gauge(name, help string, v *int64) {
	s.r.Gauge(s.prefix+name, help, v)
}

// Int registers prefix.name as a signed gauge held in an int field.
func (s Scope) Int(name, help string, v *int) {
	s.r.Int(s.prefix+name, help, v)
}

// Float registers prefix.name as a float value.
func (s Scope) Float(name, help string, v *float64) {
	s.r.Float(s.prefix+name, help, v)
}

// Value is one snapshotted reading; which field is meaningful follows the
// entry's Kind.
type Value struct {
	U uint64
	G int64
	F float64
}

// Snapshot is a point-in-time copy of every registered value, in
// registration order. Snapshots from the same Registry share descriptors.
type Snapshot struct {
	descs  []Desc
	index  map[string]int
	labels string
	vals   []Value
}

// Snapshot copies every registered value at one instant.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{labels: r.labels, vals: make([]Value, len(r.entries))}
	s.descs, s.index = r.descSlices()
	for i, e := range r.entries {
		switch {
		case e.u != nil:
			s.vals[i].U = *e.u
		case e.g != nil:
			s.vals[i].G = *e.g
		case e.gi != nil:
			s.vals[i].G = int64(*e.gi)
		case e.f != nil:
			s.vals[i].F = *e.f
		}
	}
	return s
}

// descSlices returns the shared descriptor slice and index map; they are
// built once per registry shape and shared by every snapshot (read-only).
func (r *Registry) descSlices() ([]Desc, map[string]int) {
	if r.descs == nil {
		r.descs = make([]Desc, len(r.entries))
		for i, e := range r.entries {
			r.descs[i] = e.desc
		}
	}
	return r.descs, r.index
}

// Len returns the number of values in the snapshot.
func (s Snapshot) Len() int { return len(s.vals) }

// Desc returns descriptor i in registration order.
func (s Snapshot) Desc(i int) Desc { return s.descs[i] }

// Value returns reading i in registration order.
func (s Snapshot) Value(i int) Value { return s.vals[i] }

// Labels returns the registry-wide label list the snapshot inherited.
func (s Snapshot) Labels() string { return s.labels }

// Uint looks a counter up by its registration key (name, or name{labels}
// for labelled entries) and returns its value. ok is false when the name is
// absent — a caller-friendly miss, because registries legitimately differ by
// mode (no drc.* outside VCFR).
func (s Snapshot) Uint(key string) (v uint64, ok bool) {
	i, ok := s.index[key]
	if !ok {
		return 0, false
	}
	return s.vals[i].U, true
}

// Float looks any entry up by key and returns its reading as a float64
// (counters and gauges are converted).
func (s Snapshot) Float(key string) (v float64, ok bool) {
	i, ok := s.index[key]
	if !ok {
		return 0, false
	}
	switch s.descs[i].Kind {
	case KindCounter:
		return float64(s.vals[i].U), true
	case KindGauge:
		return float64(s.vals[i].G), true
	default:
		return s.vals[i].F, true
	}
}

// Each calls fn for every (descriptor, reading) pair in registration order.
func (s Snapshot) Each(fn func(Desc, Value)) {
	for i, d := range s.descs {
		fn(d, s.vals[i])
	}
}

// Delta returns s minus prev: counters subtract (the per-window view),
// gauges and floats carry s's reading through unchanged. It errors when the
// snapshots come from differently shaped registries or when any counter
// decreased — counters are contractually monotonic, so a decrease is a bug
// in the producer, not a value to silently wrap.
func (s Snapshot) Delta(prev Snapshot) (Snapshot, error) {
	if len(s.vals) != len(prev.vals) {
		return Snapshot{}, fmt.Errorf("stats: delta over mismatched snapshots (%d vs %d entries)",
			len(s.vals), len(prev.vals))
	}
	d := Snapshot{descs: s.descs, index: s.index, labels: s.labels, vals: make([]Value, len(s.vals))}
	for i := range s.vals {
		if s.descs[i].key() != prev.descs[i].key() {
			return Snapshot{}, fmt.Errorf("stats: delta over mismatched snapshots (%q vs %q at %d)",
				s.descs[i].key(), prev.descs[i].key(), i)
		}
		switch s.descs[i].Kind {
		case KindCounter:
			if s.vals[i].U < prev.vals[i].U {
				return Snapshot{}, fmt.Errorf("stats: counter %s decreased (%d -> %d)",
					s.descs[i].key(), prev.vals[i].U, s.vals[i].U)
			}
			d.vals[i].U = s.vals[i].U - prev.vals[i].U
		case KindGauge:
			d.vals[i].G = s.vals[i].G
		case KindFloat:
			d.vals[i].F = s.vals[i].F
		}
	}
	return d, nil
}

// Monotonic verifies that no counter in s is below its reading in prev —
// the property mid-run sampling relies on. Gauges and floats are exempt.
func (s Snapshot) Monotonic(prev Snapshot) error {
	_, err := s.Delta(prev)
	return err
}
