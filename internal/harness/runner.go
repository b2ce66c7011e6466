package harness

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/ilr"
	"vcfr/internal/trace"
)

// Runner executes experiments by sharding their (experiment, workload,
// config) cells across a bounded worker pool. Every cell derives its own
// PRNG seed from (base seed, experiment ID, cell name), so results are
// bit-identical regardless of worker count or goroutine scheduling, and
// cells land in their table in the stable order of the workload list, not
// in completion order.
type Runner struct {
	// Workers bounds the number of concurrently executing cells across
	// every experiment this runner is driving. <= 0 means GOMAXPROCS.
	Workers int
	// Traces is never read: harness cells, fault references and campaigns
	// always execute. It stays only because the benchmark's traced layer
	// (perfbench/traced) assigns it.
	Traces *trace.Cache

	semOnce sync.Once
	sem     chan struct{}

	// Preparation is memoized in two steps, both deterministic in their
	// key. programs holds each workload built and analysed once per (name,
	// scale); apps holds each layout of a program that Prepare built, per
	// (name, layout seed, spread, scale). Every layout takes its program
	// from programs, so all layouts of one workload share its image, input
	// and CFG; table cells take theirs through layout and keep none.
	programs memo[*program]
	apps     memo[*App]
}

// maxApps bounds the prepared-app memo. Each entry holds three images plus
// translation tables: 64 layouts of the SPEC analogs at scale 1 retain
// 16 MB of live heap, about 31 MB of peak RSS once the GC's headroom is
// counted (about 0.5 MB per app).
const maxApps = 64

// maxPrograms bounds the program memo (each entry holds one workload image
// and its CFG). It exceeds the number of built-in workloads, so a sweep at
// one scale never rebuilds a program.
const maxPrograms = 32

// AppMemoStats reports the prepared-app memo's cumulative lookup hits and
// misses. A caller that waits for another caller's build of the same app
// counts as a hit.
func (r *Runner) AppMemoStats() (hits, misses uint64) {
	return r.apps.stats()
}

// memo is a bounded FIFO of values built once per key. An entry is in the
// map from the first miss on, so concurrent callers of one key wait for that
// one build (single flight). The zero value is empty and ready to use.
type memo[V any] struct {
	mu     sync.Mutex
	m      map[string]*memoEntry[V]
	order  []string
	hits   uint64
	misses uint64
}

// memoEntry is one memo slot. done is closed once v or err is set.
type memoEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// stats reports the memo's cumulative lookup hits and misses.
func (m *memo[V]) stats() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// get returns the memoized value for key, building it with build on a miss
// and evicting the oldest entry past bound. Concurrent misses on one key
// build once: the first caller builds, the rest wait for it (or for ctx). A
// failed or panicking build is not memoized; its waiters get its error.
func (m *memo[V]) get(ctx context.Context, key string, bound int, build func() (V, error)) (V, error) {
	m.mu.Lock()
	if e := m.m[key]; e != nil {
		m.hits++
		m.mu.Unlock()
		select {
		case <-e.done:
			return e.v, e.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	m.misses++
	if m.m == nil {
		m.m = make(map[string]*memoEntry[V])
	}
	if len(m.order) >= bound {
		delete(m.m, m.order[0])
		m.order = m.order[1:]
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.m[key] = e
	m.order = append(m.order, key)
	m.mu.Unlock()

	// The deferred hand-off also runs when build panics, so waiters get an
	// error instead of hanging and the key is built afresh next time.
	e.err = fmt.Errorf("harness: preparing %s panicked", key)
	defer func() {
		if e.err != nil {
			m.forget(key, e)
		}
		close(e.done)
	}()
	e.v, e.err = build()
	return e.v, e.err
}

// forget drops e from the memo if it still holds key.
func (m *memo[V]) forget(key string, e *memoEntry[V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m[key] != e {
		return
	}
	delete(m.m, key)
	for i, k := range m.order {
		if k == key {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// NewRunner returns a runner with the given worker budget (<= 0 means
// GOMAXPROCS).
func NewRunner(workers int) *Runner {
	return &Runner{Workers: workers}
}

// slots lazily builds the shared worker-slot channel, so a zero-value
// Runner and flag-configured Workers values both work.
func (r *Runner) slots() chan struct{} {
	r.semOnce.Do(func() {
		n := r.Workers
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		r.Workers = n
		r.sem = make(chan struct{}, n)
	})
	return r.sem
}

// Shard runs fn(ctx, i) for every i in [0, n) on the runner's bounded
// worker pool and returns once all of them finished or the context was
// cancelled. min(n, Workers) goroutines take the indices in order, and each
// holds one of the runner's shared slots per index, so the bound holds
// across every Shard the runner drives at once. Indices whose slot
// acquisition loses to cancellation are simply never invoked — callers
// detect skipped work by the absence of a result for that index, which is
// how the fault-injection campaign reports partial coverage. fn runs with
// panic capture; a panicking index does not take down its worker or the
// sweep (the panic value is discarded, so fn should capture its own failure
// state before returning).
func (r *Runner) Shard(ctx context.Context, n int, fn func(ctx context.Context, i int)) {
	if ctx == nil {
		ctx = context.Background()
	}
	sem := r.slots()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(n, r.Workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					return
				}
				shardOne(ctx, sem, i, fn)
			}
		}()
	}
	wg.Wait()
}

// shardOne runs one Shard index on a held slot, releasing the slot and
// discarding any panic.
func shardOne(ctx context.Context, sem chan struct{}, i int, fn func(ctx context.Context, i int)) {
	defer func() { <-sem }()
	defer func() { _ = recover() }()
	fn(ctx, i)
}

// Sweep returns the execution context for invoking one experiment function
// directly. Production callers go through Run/RunAll; tests and benchmarks
// use Sweep to call a specific experiment function by name.
func (r *Runner) Sweep(ctx context.Context, expID string) *Sweep {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Sweep{ctx: ctx, r: r, exp: expID}
}

// Run executes one experiment through the runner's worker pool.
func (r *Runner) Run(ctx context.Context, e Experiment, cfg Config) (*Table, error) {
	return e.Run(r.Sweep(ctx, e.ID), cfg)
}

// SweepResult is one experiment's outcome in a RunAll sweep.
type SweepResult struct {
	Experiment Experiment
	Table      *Table
	Err        error
	Elapsed    time.Duration
}

// RunAll runs the given experiments concurrently over the shared worker
// pool and returns their results in input order. One experiment failing
// does not abort the others; its SweepResult carries the error.
func (r *Runner) RunAll(ctx context.Context, exps []Experiment, cfg Config) []SweepResult {
	out := make([]SweepResult, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			start := time.Now()
			tb, err := r.Run(ctx, e, cfg)
			out[i] = SweepResult{Experiment: e, Table: tb, Err: err, Elapsed: time.Since(start)}
		}(i, e)
	}
	wg.Wait()
	return out
}

// Sweep carries one experiment invocation's context: the runner whose pool
// the cells share, the cancellation context, and the experiment ID that
// namespaces derived seeds.
type Sweep struct {
	ctx context.Context
	r   *Runner
	exp string
}

// Cell is one unit of sharded work: the table rows a (experiment,
// workload, config) cell contributes, plus the numeric values it feeds
// into the experiment's aggregate row. Vals' meaning is per-experiment
// (e.g. Fig4 stores the normalized IPC, Fig13 one value per DRC size).
type Cell struct {
	Name string
	Rows [][]string
	Vals []float64
	Err  string // non-empty for failed cells
}

func (c Cell) failed() bool { return c.Err != "" }

// cellFn computes one cell. cfg arrives with the cell's derived seed and
// the workload list cleared; name is the cell's label (usually the
// workload name). fn must honor ctx at simulation-run granularity — the
// Runner.Prepare and the runMode helper below do that.
type cellFn func(ctx context.Context, cfg Config, name string) (Cell, error)

// CellSeed derives the deterministic per-cell PRNG seed: an FNV-1a hash of
// the base seed, the experiment ID, and the cell name. Cells therefore
// never share randomness, and a cell's stream does not depend on which
// worker ran it or in what order. Never returns 0 (Config treats 0 as
// "use the default seed").
func CellSeed(base int64, expID, cell string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(expID))
	h.Write([]byte{0})
	h.Write([]byte(cell))
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}

// mapCells shards fn over names: each name becomes one cell with its own
// derived seed, run on the runner's worker pool. Results come back in the
// order of names. A cell that fails (error, panic, timeout) yields an
// error row instead of aborting the sweep.
func (s *Sweep) mapCells(cfg Config, names []string, fn cellFn) []Cell {
	return s.mapCellsIndexed(cfg, names, func(ctx context.Context, cfg Config, _ int, name string) (Cell, error) {
		return fn(ctx, cfg, name)
	})
}

// mapCellsIndexed is mapCells for a cell function that also needs the
// cell's index into names, to fill a typed per-cell slot of its own.
func (s *Sweep) mapCellsIndexed(cfg Config, names []string, fn func(ctx context.Context, cfg Config, i int, name string) (Cell, error)) []Cell {
	cfg = cfg.withDefaults()
	cells := make([]Cell, len(names))
	ran := make([]bool, len(names))
	s.r.Shard(s.ctx, len(names), func(ctx context.Context, i int) {
		ran[i] = true
		ccfg := cfg
		ccfg.Workloads = nil
		ccfg.Seed = CellSeed(cfg.Seed, s.exp, names[i])
		cells[i] = runCell(ctx, ccfg, i, names[i], fn)
	})
	for i, name := range names {
		if !ran[i] {
			cells[i] = errCell(name, s.ctx.Err())
		}
	}
	return cells
}

// runCell executes one cell, capturing a panic with its stack.
func runCell(ctx context.Context, cfg Config, i int, name string, fn func(context.Context, Config, int, string) (Cell, error)) (c Cell) {
	defer func() {
		if r := recover(); r != nil {
			c = errCell(name, fmt.Errorf("panic: %v\n%s", r, debug.Stack()))
		}
	}()
	cell, err := fn(ctx, cfg, i, name)
	if err != nil {
		return errCell(name, err)
	}
	cell.Name = name
	return cell
}

// errCell converts a cell failure into a reported table row. Only the
// first line of the error lands in the table (panic values carry stacks);
// the full text stays in Err.
func errCell(name string, err error) Cell {
	return Cell{
		Name: name,
		Rows: [][]string{{name, "error: " + FirstLine(err.Error())}},
		Err:  err.Error(),
	}
}

// FirstLine truncates an error message to its first line (panic values
// carry whole stack traces).
func FirstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// NotExecuted names why planned work never ran: the context's error when it
// was cancelled, otherwise an error carrying marker.
func NotExecuted(ctx context.Context, marker string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return errors.New(marker)
}

// appendCells appends every cell's rows to the table, in cell order.
func appendCells(t *Table, cells []Cell) {
	for _, c := range cells {
		t.Rows = append(t.Rows, c.Rows...)
	}
}

// vals collects the i-th aggregate value of every successful cell that has
// one (cells may opt out of aggregation by publishing fewer values, as
// Fig14's cold-only apps do).
func vals(cells []Cell, i int) []float64 {
	var out []float64
	for _, c := range cells {
		if c.failed() || i >= len(c.Vals) {
			continue
		}
		out = append(out, c.Vals[i])
	}
	return out
}

// Cancellation-aware wrappers: cells call these instead of the raw
// Prepare/Run so a per-cell timeout or a sweep-wide cancel takes effect at
// the next simulation-run boundary.

// appKey identifies one prepared (workload, layout) pair for the runner's
// prepared-app memo.
func appKey(name string, cfg Config) string {
	cfg = cfg.withDefaults()
	return fmt.Sprintf("%s|%d|%d|%d", name, cfg.Seed, cfg.Spread, cfg.Scale)
}

// Prepare is the package-level Prepare through the runner's prepared-app
// memo, with a cancellation check first. Apps are shared by every caller
// that asks for the same (workload, layout), concurrently too, so callers
// treat them as read-only: pipelines copy the images they load, and
// re-randomization returns a new result. Sweeps and campaigns prepare
// here because vcfrd repeats their jobs across requests, and a repeat
// reuses the app with the gadget pools App.Derived hangs off it; a table
// cell, whose derived seed no other cell shares, takes a one-shot layout
// instead.
func (r *Runner) Prepare(ctx context.Context, name string, cfg Config) (*App, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return r.apps.get(ctx, appKey(name, cfg), maxApps, func() (*App, error) {
		return r.layout(ctx, name, cfg, ilr.Options{})
	})
}

// PrepareEach prepares the named workloads of one campaign kind through
// the memo. Workload w gets the layout seed CellSeed(cfg.Seed, kind, w), so
// layouts differ across workloads but never across surfaces. It returns the
// prepared apps, and the preparation errors, by workload name.
func (r *Runner) PrepareEach(ctx context.Context, kind string, names []string, cfg Config) (map[string]*App, map[string]error) {
	apps := make(map[string]*App, len(names))
	errs := make(map[string]error)
	for _, w := range names {
		wcfg := Config{Scale: cfg.Scale, Spread: cfg.Spread, Seed: CellSeed(cfg.Seed, kind, w)}
		if app, err := r.Prepare(ctx, w, wcfg); err != nil {
			errs[w] = err
		} else {
			apps[w] = app
		}
	}
	return apps, errs
}

// layout is PrepareOpts with the program from the runner's program memo,
// and a cancellation check first. The app memo never sees the layout, so it
// is garbage once the caller drops it: this is how table cells prepare.
func (r *Runner) layout(ctx context.Context, name string, cfg Config, opts ilr.Options) (*App, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	prog, err := r.loadProgram(ctx, name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	return prog.layout(cfg, opts)
}

// loadProgram returns the named workload, built at scale and analysed,
// from the program memo.
func (r *Runner) loadProgram(ctx context.Context, name string, scale int) (*program, error) {
	return r.programs.get(ctx, fmt.Sprintf("%s|%d", name, scale), maxPrograms, func() (*program, error) {
		return buildProgram(name, scale)
	})
}

// runMode is App.RunContext with a cancellation check before the pipeline
// is built.
func (s *Sweep) runMode(ctx context.Context, app *App, mode cpu.Mode, maxInsts uint64, mutate func(*cpu.Config)) (cpu.Result, cpu.Config, error) {
	if err := ctx.Err(); err != nil {
		return cpu.Result{}, cpu.Config{}, err
	}
	return app.RunContext(ctx, mode, maxInsts, mutate)
}

// runEmulated runs the app under the software-ILR cost model, with a
// cancellation check first.
func runEmulated(ctx context.Context, app *App, maxInsts uint64) (emu.RunResult, error) {
	if err := ctx.Err(); err != nil {
		return emu.RunResult{}, err
	}
	return app.Emulate(emu.ModeEmulatedILR, app.W.Input, maxInsts)
}
