package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"vcfr/internal/attack"
	"vcfr/internal/fault"
	"vcfr/internal/harness"
	"vcfr/internal/realbin"
	"vcfr/internal/results"
	"vcfr/internal/stats"
)

// metrics is the server's observability state: job counters by lifecycle
// state, queue pressure, and per-stage latency histograms. The scalar series
// are registered into a stats.Registry at construction — name, help, and
// type live only there, and /metrics is generated from the registry, so a
// counter added to the registry cannot be silently dropped from the
// exposition (metrics_test.go asserts the exactly-once property). The
// fixed-bucket histograms keep their hand-rolled rendering: the registry
// models scalars, and the paper repo carries no metrics dependency.
type metrics struct {
	mu  sync.Mutex
	reg *stats.Registry

	accepted uint64 // jobs admitted to the queue
	rejected uint64 // jobs refused with 429 (queue full)
	queued   int64  // currently waiting
	running  int64  // currently executing
	done     int64  // finished successfully (cumulative)
	failed   int64  // finished with an error (cumulative)
	panicked uint64 // failures caused by a recovered panic (subset of failed)

	// Mirrors of state owned elsewhere (the queue channel, the runner's
	// caches), copied in under mu at render time so the registry has one
	// consistent instant to snapshot.
	queueDepth int64
	queueCap   int64
	caches     cacheStats

	// Fault-campaign outcome totals, merged in as each campaign job
	// finishes, plus the count of finished campaigns.
	faults    results.CampaignCounts
	campaigns uint64

	// Attack-campaign activity totals, merged in the same way.
	attacks         results.AttackCounts
	attackCampaigns uint64

	// Mirror of the process-wide real-binary front-end totals (lifts,
	// refusals, recovered blocks), refreshed at render time like the cache
	// mirrors.
	realbin realbin.Totals

	queueWait *histogram
	runDur    *histogram
}

func newMetrics() *metrics {
	// Bounds chosen for simulation jobs: sub-millisecond queue waits up to
	// multi-minute uncapped sweeps.
	bounds := []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30, 120}
	m := &metrics{
		queueWait: newHistogram(bounds),
		runDur:    newHistogram(bounds),
	}
	// Registration order is exposition order; series sharing a metric name
	// (jobs.state) must be registered consecutively.
	r := stats.New()
	r.Counter("jobs.accepted", "Jobs admitted to the queue.", &m.accepted)
	r.Counter("jobs.rejected", "Jobs refused with 429 because the queue was full.", &m.rejected)
	stateHelp := "Jobs currently in each lifecycle state (queued, running) and cumulative terminal counts (done, failed)."
	r.GaugeL("jobs.state", `state="queued"`, stateHelp, &m.queued)
	r.GaugeL("jobs.state", `state="running"`, stateHelp, &m.running)
	r.GaugeL("jobs.state", `state="done"`, stateHelp, &m.done)
	r.GaugeL("jobs.state", `state="failed"`, stateHelp, &m.failed)
	r.Counter("job.panics", "Jobs failed by a recovered panic.", &m.panicked)
	r.Gauge("queue.depth", "Jobs waiting in the bounded queue.", &m.queueDepth)
	r.Gauge("queue.capacity", "Bound of the job queue.", &m.queueCap)
	r.Counter("app.memo.hits", "Prepared-app memo hits (workload build and ILR rewrite reused).", &m.caches.appHits)
	r.Counter("app.memo.misses", "Prepared-app memo misses (each one rewrote a layout, and built the workload if the runner did not hold it).", &m.caches.appMisses)
	r.Counter("fault.campaigns", "Fault-injection campaigns finished.", &m.campaigns)
	fault.Register(r, &m.faults)
	r.Counter("attack.campaigns", "Adversary-in-the-loop attack campaigns finished.", &m.attackCampaigns)
	attack.Register(r, &m.attacks)
	m.realbin.Register(r)
	m.reg = r
	return m
}

func (m *metrics) jobAccepted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accepted++
	m.queued++
}

// jobAcceptRolledBack undoes one jobAccepted for a job that was registered
// optimistically but then bounced off a full queue.
func (m *metrics) jobAcceptRolledBack() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accepted--
	m.queued--
}

func (m *metrics) jobRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected++
}

func (m *metrics) jobStarted(queueWait time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queued--
	m.running++
	m.queueWait.observe(queueWait.Seconds())
}

// campaignFinished folds a finished job's campaign totals into the
// cumulative fault.* or attack.* counters. Envelopes of other kinds leave
// them alone.
func (m *metrics) campaignFinished(env results.Envelope) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := env.Campaign; c != nil {
		m.campaigns++
		fault.Merge(&m.faults, c.Totals)
	}
	if a := env.Attack; a != nil {
		m.attackCampaigns++
		attack.Merge(&m.attacks, a.Totals)
	}
}

// retryAfter estimates, in whole seconds, how long a refused client should
// wait for a queue slot: the queue's current occupancy divided by the
// observed drain rate (mean job duration over the worker pool, from the
// same runDur histogram /metrics exports). Before any job has finished
// there is no observed rate and the old constant 1 stands in.
func (m *metrics) retryAfter(queueLen, workers int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.runDur.n == 0 {
		return 1
	}
	if workers < 1 {
		workers = 1
	}
	mean := m.runDur.sum / float64(m.runDur.n)
	secs := int(math.Ceil(mean * float64(queueLen+1) / float64(workers)))
	if secs < 1 {
		return 1
	}
	if secs > 3600 {
		return 3600
	}
	return secs
}

func (m *metrics) jobPanicked() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panicked++
}

func (m *metrics) jobFinished(ok bool, runDur time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	if ok {
		m.done++
	} else {
		m.failed++
	}
	m.runDur.observe(runDur.Seconds())
}

// cacheStats is one snapshot of the runner's prepared-app memo.
type cacheStats struct {
	appHits, appMisses uint64
}

// runnerCaches snapshots r's prepared-app memo for render.
func runnerCaches(r *harness.Runner) cacheStats {
	var c cacheStats
	c.appHits, c.appMisses = r.AppMemoStats()
	return c
}

// render writes the Prometheus text exposition: the registry-backed scalars
// first (generated — see newMetrics), then the histograms. caches comes from
// the shared runner; queueDepth/queueCap from the job queue channel.
func (m *metrics) render(w io.Writer, queueDepth, queueCap int, caches cacheStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueDepth, m.queueCap = int64(queueDepth), int64(queueCap)
	m.caches = caches
	m.realbin = realbin.TotalsSnapshot()
	stats.WritePrometheus(w, m.reg.Snapshot(), "vcfrd")

	fmt.Fprintln(w, "# HELP vcfrd_stage_seconds Per-stage job latency: queue = acceptance to execution start, run = execution wall clock.")
	fmt.Fprintln(w, "# TYPE vcfrd_stage_seconds histogram")
	m.queueWait.render(w, "vcfrd_stage_seconds", "queue")
	m.runDur.render(w, "vcfrd_stage_seconds", "run")
}

// histogram is a fixed-bucket latency histogram in seconds.
type histogram struct {
	bounds []float64 // upper bounds, ascending; an implicit +Inf follows
	counts []uint64  // len(bounds)+1
	sum    float64
	n      uint64
}

func newHistogram(bounds []float64) *histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// render emits the histogram's series in Prometheus cumulative-bucket form
// under name{stage="..."}; the caller prints HELP/TYPE once for the shared
// metric name and holds the metrics mutex.
func (h *histogram) render(w io.Writer, name, stage string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{stage=%q,le=\"%g\"} %d\n", name, stage, b, cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{stage=%q,le=\"+Inf\"} %d\n", name, stage, cum)
	fmt.Fprintf(w, "%s_sum{stage=%q} %g\n", name, stage, h.sum)
	fmt.Fprintf(w, "%s_count{stage=%q} %d\n", name, stage, h.n)
}
