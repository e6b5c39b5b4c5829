package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/sched"
)

// Mode selects the algorithm a request runs.
type Mode int

const (
	// ModeAll runs ScheduleAll (Theorem 2.2.1): every job, O(log n)-approx cost.
	ModeAll Mode = iota
	// ModePrize runs PrizeCollecting (Theorem 2.3.1): value ≥ (1−ε)Z.
	ModePrize
	// ModePrizeExact runs PrizeCollectingExact (Theorem 2.3.3): value ≥ Z.
	ModePrizeExact
)

func (m Mode) String() string {
	switch m {
	case ModeAll:
		return "all"
	case ModePrize:
		return "prize"
	case ModePrizeExact:
		return "prize-exact"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Request is one unit of work: an instance plus algorithm selection.
//
// Instance and its cost model must not be mutated after submission — they
// may be read concurrently by several requests sharing them (the
// power.CostModel contract requires concurrent-safe models; freeze
// Unavailable masks first). InstanceKey optionally names the instance for
// caching and per-worker model reuse: requests with equal keys MUST carry
// identical instances (codec-built requests get a content digest
// automatically). An empty key disables caching for the request.
type Request struct {
	Instance    *sched.Instance
	Mode        Mode
	Z           float64 // value threshold for the prize modes
	Opts        sched.Options
	Improve     bool // run the Improve post-pass on the result
	InstanceKey string
}

// Result is one request's outcome.
type Result struct {
	Schedule *sched.Schedule
	Err      error
	CacheHit bool
}

// Config tunes a Service. Zero values pick sensible defaults.
type Config struct {
	// Workers is the number of solver goroutines (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the request queue (default 4×Workers). A full
	// queue exerts backpressure: Submit blocks until space frees or the
	// caller's context is done.
	QueueDepth int
	// CacheSize bounds the result cache in entries (default 256; negative
	// disables caching entirely).
	CacheSize int
	// ModelsPerWorker bounds each worker's instance-model cache
	// (default 8; negative disables model reuse).
	ModelsPerWorker int
	// ProbeWorkers is the default per-request greedy parallelism
	// (sched.Options.Workers) applied to requests that leave Workers
	// unset. 0 keeps such requests serial — with a saturated pool,
	// request-level parallelism is usually the better use of the cores;
	// raise it to trade throughput for per-request latency. Worker counts
	// never change the computed schedule. Every request's parallelism,
	// this default included, is clamped to GOMAXPROCS (probeWorkers).
	ProbeWorkers int
	// MaxSessions bounds the live solver sessions (default 1024;
	// negative disables sessions entirely). Each session holds a full
	// model plus warm-start state, so an unbounded registry would let
	// clients that never DELETE grow the process without limit;
	// CreateSession refuses past the cap until sessions are dropped.
	// Recovery restores every intact journal even past the cap — acked
	// state is never discarded to satisfy a tuning knob.
	MaxSessions int

	// StateDir, when set, makes sessions durable: each session owns an
	// append-only journal under <StateDir>/sessions, replayed by Open at
	// startup, so a crashed or redeployed process answers session
	// solve/info exactly as the uncrashed one would have.
	StateDir string
	// Fsync selects the journal fsync policy: FsyncAlways (default)
	// syncs after every record — survives power loss; FsyncNever leaves
	// flushing to the OS — survives process crashes (kill -9 included,
	// the page cache persists) but not machine crashes. Creation,
	// compaction, and the Close drain flush always sync.
	Fsync string
	// CompactEvery folds the journal back to one snapshot record after
	// this many accepted mutations (default 64; negative disables
	// periodic compaction).
	CompactEvery int
	// LazyRestore, with StateDir set, skips the bulk journal replay at
	// Open: sessions load from disk on first touch instead (open-by-id).
	// Cluster backends sharing one StateDir run lazy so each process
	// materializes only the sessions the router actually routes to it,
	// rather than every journal every backend ever wrote.
	LazyRestore bool
	// FS is the filesystem under StateDir (default the real one,
	// faultfs.OS). Tests inject faultfs.Fault failpoints through it.
	FS faultfs.FS
	// SolveTimeout bounds each stateless submission and each session
	// solve via context (0 = unbounded). A request past the deadline is
	// answered 503 + Retry-After; a solve already on a worker runs to
	// completion and still populates the caches.
	SolveTimeout time.Duration
	// RetryAfter is advertised in the Retry-After header on 429/503
	// responses (default 1s).
	RetryAfter time.Duration
	// Logf sinks recovery and journal diagnostics (default log.Printf;
	// the tests inject a recorder).
	Logf func(format string, args ...any)
}

// Fsync policy names for Config.Fsync.
const (
	FsyncAlways = "always"
	FsyncNever  = "never"
)

// probeWorkers resolves one request's greedy parallelism: the
// ProbeWorkers default when the request leaves Workers unset, clamped to
// GOMAXPROCS — each worker owns an oracle replica, and workers beyond the
// schedulable CPUs cannot run concurrently anyway.
func (c Config) probeWorkers(requested int) int {
	if requested == 0 {
		requested = c.ProbeWorkers
	}
	return min(requested, runtime.GOMAXPROCS(0))
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 1
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.ModelsPerWorker == 0 {
		c.ModelsPerWorker = 8
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 1024
	}
	if c.Fsync == "" {
		c.Fsync = FsyncAlways
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 64
	}
	if c.FS == nil {
		c.FS = faultfs.OS{}
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Stats is a point-in-time snapshot of service counters.
type Stats struct {
	Workers     int    `json:"workers"`
	QueueDepth  int    `json:"queue_depth"`  // requests waiting right now
	QueueCap    int    `json:"queue_cap"`    // configured bound
	Submitted   uint64 `json:"submitted"`    // accepted into the service
	Completed   uint64 `json:"completed"`    // answered (solved or cached)
	Errors      uint64 `json:"errors"`       // answered with an error
	Canceled    uint64 `json:"canceled"`     // abandoned before solving
	CacheHits   uint64 `json:"cache_hits"`   // answered from the digest cache
	CacheMisses uint64 `json:"cache_misses"` // solved and cached
	ModelReuses uint64 `json:"model_reuses"` // worker reused a prebuilt model
	CacheSize   int    `json:"cache_size"`   // entries currently cached
	Sessions    int    `json:"sessions"`     // live solver sessions

	// Durability counters (all zero without Config.StateDir).
	JournalRecords     uint64 `json:"journal_records"`          // records appended (incl. snapshots)
	JournalFsyncs      uint64 `json:"journal_fsyncs"`           // fsyncs issued
	JournalCompactions uint64 `json:"journal_compactions"`      // journals folded to a snapshot
	SessionsRestored   uint64 `json:"sessions_restored"`        // sessions replayed at startup
	JournalsDropped    uint64 `json:"journals_dropped_corrupt"` // journals quarantined as corrupt
	JournalErrors      uint64 `json:"journal_errors"`           // live-path journal failures (session dropped)
}

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("service: closed")

// Service is the concurrent batch scheduler. Create with New, feed with
// Submit/SubmitBatch, observe with Stats, stop with Close.
type Service struct {
	cfg   Config
	queue chan *task

	closeMu sync.RWMutex // guards closed + the queue-send in enqueue
	closed  bool

	workers sync.WaitGroup

	cacheMu sync.Mutex
	cache   map[string]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry

	sessMu   sync.Mutex
	sessions map[string]*sessionHandle
	sessSeq  atomic.Uint64
	openMu   sync.Mutex // serializes on-demand journal opens (takeover.go)

	submitted, completed, errs, canceled atomic.Uint64
	cacheHits, cacheMisses, modelReuses  atomic.Uint64

	journalRecords, journalFsyncs, journalCompactions atomic.Uint64
	sessionsRestored, journalsDroppedCorrupt          atomic.Uint64
	journalErrors                                     atomic.Uint64
}

type task struct {
	ctx  context.Context
	req  Request
	done chan Result
}

type cacheEntry struct {
	key   string
	sched *sched.Schedule
}

// New starts a service with cfg's worker pool. The caller owns the
// returned service and must Close it to release the workers. With
// Config.StateDir set, startup recovery can fail — use Open to handle
// that error; New panics on it.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a service and, when Config.StateDir is set, replays every
// session journal found there: each becomes a live session answering
// solve/info exactly as before the restart, or is dropped cleanly with
// a logged error and a journals_dropped_corrupt tick — never served
// from corrupt state. Open fails only on environment errors (state dir
// unusable, bad Fsync value); per-journal corruption never fails
// startup.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.Fsync != FsyncAlways && cfg.Fsync != FsyncNever {
		return nil, fmt.Errorf("service: unknown fsync policy %q (want %q or %q)",
			cfg.Fsync, FsyncAlways, FsyncNever)
	}
	s := &Service{
		cfg:      cfg,
		queue:    make(chan *task, cfg.QueueDepth),
		cache:    map[string]*list.Element{},
		lru:      list.New(),
		sessions: map[string]*sessionHandle{},
	}
	if s.durable() && cfg.MaxSessions >= 0 && !cfg.LazyRestore {
		if err := s.recoverSessions(); err != nil {
			return nil, err
		}
	}
	if s.durable() && cfg.LazyRestore {
		// Lazy mode still needs the sessions dir: open-by-id and
		// create-with-id assume it exists.
		if err := s.cfg.FS.MkdirAll(s.sessionsDir(), 0o755); err != nil {
			return nil, fmt.Errorf("service: state dir: %w", err)
		}
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Submit solves one request through the pool and blocks until it is
// answered or ctx is done. Backpressure: with the queue full, Submit
// blocks — bound the wait with a context deadline. Cancelling ctx after
// the request is queued abandons it (a worker will skip it), but a solve
// already in flight runs to completion.
func (s *Service) Submit(ctx context.Context, req Request) (*sched.Schedule, error) {
	r := s.Do(ctx, req)
	return r.Schedule, r.Err
}

// Do is Submit with cache visibility: the Result says whether the answer
// came from the digest cache.
func (s *Service) Do(ctx context.Context, req Request) Result {
	if req.Instance == nil {
		return Result{Err: errors.New("service: nil instance")}
	}
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	s.closeMu.RLock()
	closed := s.closed
	s.closeMu.RUnlock()
	if closed {
		// A draining service refuses everything, even cacheable repeats —
		// enqueue would refuse anyway, and answering some requests but
		// not others during shutdown is a confusing half-open state.
		return Result{Err: ErrClosed}
	}
	if hit, ok := s.cacheGet(cacheKey(req)); ok {
		s.submitted.Add(1)
		s.completed.Add(1)
		s.cacheHits.Add(1)
		return Result{Schedule: hit, CacheHit: true}
	}
	t := &task{ctx: ctx, req: req, done: make(chan Result, 1)}
	if err := s.enqueue(ctx, t); err != nil {
		return Result{Err: err}
	}
	s.submitted.Add(1)
	select {
	case r := <-t.done:
		return r
	case <-ctx.Done():
		// The worker that eventually dequeues t sees the dead context and
		// drops it without solving.
		s.canceled.Add(1)
		return Result{Err: ctx.Err()}
	}
}

// SubmitBatch submits every request and waits for all results, aligned
// by index with the input. Submitter concurrency is bounded by the queue
// plus the pool — enough to keep every worker busy without spawning one
// goroutine per request, so a huge batch cannot exhaust memory before
// the queue's backpressure applies.
func (s *Service) SubmitBatch(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	submitters := s.cfg.Workers + s.cfg.QueueDepth
	if submitters > len(reqs) {
		submitters = len(reqs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(submitters)
	for g := 0; g < submitters; g++ {
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = s.Do(ctx, reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// enqueue places t on the queue, blocking for backpressure. It holds the
// close read-lock across the send so Close cannot close the queue under a
// blocked sender.
func (s *Service) enqueue(ctx context.Context, t *task) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.queue <- t:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the service: new submissions are refused, queued requests
// are still answered, and Close returns once every worker has exited and
// — on a durable service — every session journal has been folded to a
// final snapshot (capturing warm-start hints) and fsynced, so the next
// Open restores sessions warm. If ctx expires first, the drain keeps
// running in the background.
func (s *Service) Close(ctx context.Context) error {
	s.closeMu.Lock()
	first := !s.closed
	if first {
		s.closed = true
		close(s.queue)
	}
	s.closeMu.Unlock()
	done := make(chan struct{})
	go func() {
		if first && s.durable() {
			// After the closed flag flips, sessionsOpen refuses new
			// mutations; in-flight ones finish under their session lock
			// before the flush takes it.
			s.flushJournals()
		}
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	s.cacheMu.Lock()
	cached := s.lru.Len()
	s.cacheMu.Unlock()
	s.sessMu.Lock()
	liveSessions := len(s.sessions)
	s.sessMu.Unlock()
	return Stats{
		Workers:     s.cfg.Workers,
		QueueDepth:  len(s.queue),
		QueueCap:    s.cfg.QueueDepth,
		Submitted:   s.submitted.Load(),
		Completed:   s.completed.Load(),
		Errors:      s.errs.Load(),
		Canceled:    s.canceled.Load(),
		CacheHits:   s.cacheHits.Load(),
		CacheMisses: s.cacheMisses.Load(),
		ModelReuses: s.modelReuses.Load(),
		CacheSize:   cached,
		Sessions:    liveSessions,

		JournalRecords:     s.journalRecords.Load(),
		JournalFsyncs:      s.journalFsyncs.Load(),
		JournalCompactions: s.journalCompactions.Load(),
		SessionsRestored:   s.sessionsRestored.Load(),
		JournalsDropped:    s.journalsDroppedCorrupt.Load(),
		JournalErrors:      s.journalErrors.Load(),
	}
}

// worker is the solver loop. Each worker owns a small model cache keyed
// by InstanceKey, so a batch of requests against one instance builds the
// bipartite model (and its per-processor slot indexes) once and reuses it
// for every algorithm/threshold variation — the incremental matchers then
// start from a prebuilt graph instead of re-deriving it per request.
func (s *Service) worker() {
	defer s.workers.Done()
	models := newModelCache(s.cfg.ModelsPerWorker)
	for t := range s.queue {
		if t.ctx.Err() != nil {
			// Abandoned while queued; the submitter already returned.
			continue
		}
		key := cacheKey(t.req)
		if hit, ok := s.cacheGet(key); ok {
			// A twin request was solved while this one sat in the queue.
			s.completed.Add(1)
			s.cacheHits.Add(1)
			t.done <- Result{Schedule: hit, CacheHit: true}
			continue
		}
		res := s.solve(models, t.req)
		s.completed.Add(1)
		if res.Err != nil {
			s.errs.Add(1)
		} else if key != "" {
			s.cacheMisses.Add(1)
			s.cachePut(key, res.Schedule)
		}
		t.done <- res
	}
}

// Solve answers one request synchronously on the caller's goroutine — the
// sequential reference path, with no pool, cache, or model reuse. The
// CLI's solve mode uses it, and service output is differential-tested
// against it.
func Solve(req Request) (*sched.Schedule, error) {
	r := (&Service{}).solve(nil, req)
	return r.Schedule, r.Err
}

// solve runs the request's algorithm, optionally reusing a cached model.
func (s *Service) solve(models *modelCache, req Request) Result {
	req.Opts.Workers = s.cfg.probeWorkers(req.Opts.Workers)
	model, reused, err := models.get(req)
	if err != nil {
		return Result{Err: err}
	}
	if reused {
		s.modelReuses.Add(1)
	}
	var out *sched.Schedule
	switch req.Mode {
	case ModeAll:
		out, err = model.ScheduleAll(req.Opts)
	case ModePrize:
		out, err = model.PrizeCollecting(req.Z, req.Opts)
	case ModePrizeExact:
		out, err = model.PrizeCollectingExact(req.Z, req.Opts)
	default:
		err = fmt.Errorf("service: unknown mode %d", int(req.Mode))
	}
	if err != nil {
		return Result{Err: err}
	}
	if req.Improve {
		out = sched.Improve(req.Instance, out)
	}
	return Result{Schedule: out}
}

// cacheKey mixes the instance digest with every request field that
// changes the answer, including caller-supplied extra candidate
// intervals. Empty when the request opted out of caching. Workers is
// deliberately excluded: the parallel greedy picks identical subsets at
// every worker count (asserted by the budget/sched determinism tests), so
// requests differing only in parallelism share one entry.
func cacheKey(req Request) string {
	if req.InstanceKey == "" {
		return ""
	}
	key := fmt.Sprintf("%s|m%d|z%g|e%g|i%t|p%d|po%t",
		req.InstanceKey, req.Mode, req.Z, req.Opts.Eps, req.Improve,
		req.Opts.Policy, req.Opts.PlainOracle)
	if len(req.Opts.Extra) > 0 {
		key += fmt.Sprintf("|x%v", req.Opts.Extra)
	}
	return key
}

func (s *Service) cacheGet(key string) (*sched.Schedule, bool) {
	if key == "" || s.cfg.CacheSize < 0 {
		return nil, false
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	el, ok := s.cache[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	// Hand out a copy: callers own their schedule and may mutate it.
	return copySchedule(el.Value.(*cacheEntry).sched), true
}

func (s *Service) cachePut(key string, sc *sched.Schedule) {
	if key == "" || s.cfg.CacheSize < 0 || sc == nil {
		return
	}
	stored := copySchedule(sc)
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if el, ok := s.cache[key]; ok {
		el.Value.(*cacheEntry).sched = stored
		s.lru.MoveToFront(el)
		return
	}
	s.cache[key] = s.lru.PushFront(&cacheEntry{key: key, sched: stored})
	for s.lru.Len() > s.cfg.CacheSize {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.cache, oldest.Value.(*cacheEntry).key)
	}
}

func copySchedule(sc *sched.Schedule) *sched.Schedule {
	out := *sc
	out.Intervals = append([]sched.Interval(nil), sc.Intervals...)
	out.Assignment = append([]sched.SlotKey(nil), sc.Assignment...)
	return &out
}

// modelCache is a worker-local (single-goroutine) LRU of prebuilt
// scheduling models keyed by InstanceKey.
type modelCache struct {
	cap   int
	order []string // front = most recent
	byKey map[string]*sched.Model
}

func newModelCache(capacity int) *modelCache {
	return &modelCache{cap: capacity, byKey: map[string]*sched.Model{}}
}

// get returns a model for the request, reusing the cached one when the
// instance key matches. A nil receiver (the sequential Solve path) and
// keyless requests always build fresh.
func (c *modelCache) get(req Request) (*sched.Model, bool, error) {
	if c == nil || c.cap <= 0 || req.InstanceKey == "" {
		m, err := sched.NewModel(req.Instance)
		return m, false, err
	}
	if m, ok := c.byKey[req.InstanceKey]; ok {
		c.touch(req.InstanceKey)
		return m, true, nil
	}
	m, err := sched.NewModel(req.Instance)
	if err != nil {
		return nil, false, err
	}
	c.byKey[req.InstanceKey] = m
	c.order = append([]string{req.InstanceKey}, c.order...)
	if len(c.order) > c.cap {
		evict := c.order[len(c.order)-1]
		c.order = c.order[:len(c.order)-1]
		delete(c.byKey, evict)
	}
	return m, false, nil
}

func (c *modelCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			c.order = append([]string{key}, c.order...)
			return
		}
	}
}
