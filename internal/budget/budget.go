// Package budget implements submodular maximization with budget
// constraints — the thesis's foundational technique (§2.1, Lemma 2.1.2).
//
// Given explicitly listed allowable subsets S₁,…,Sₘ with costs C₁,…,Cₘ, a
// monotone submodular utility F, and a utility threshold x, Greedy
// repeatedly picks the subset maximizing
//
//	(min(x, F(S ∪ Sᵢ)) − F(S)) / Cᵢ
//
// and stops once the utility reaches (1−ε)x. Lemma 2.1.2 proves that if
// some collection of cost B achieves utility x, the greedy's cost is
// O(B·log(1/ε)). Set Cover is the special case of singleton subsets and a
// coverage utility, with ε below 1/(number of elements).
//
// LazyGreedy is the classical lazy-evaluation variant: stale marginal
// ratios are kept in a max-heap and only re-evaluated when popped, which is
// sound because capped marginals of a monotone submodular function can only
// shrink as the solution grows. Both variants pick identical subsets (ties
// broken by index); they differ only in oracle-call counts, which ablation
// A1 measures. On float-valued utilities a probe can round an ulp higher
// than in an earlier round, against submodularity, and at an exact ratio
// tie the lazy heap may then take a different, equally good subset.
//
// LazyGreedy (and its resumable form Stepwise) is the engine every
// production solve runs; Greedy is the short serial eager loop kept as the
// reference the conformance suite and experiments compare against.
//
// The lazy engine scales across CPUs without giving up the
// incremental-oracle fast path: Options.Workers revalidates stale heap
// entries in concurrent batches over goroutines that each own an oracle
// replica (submodular.Incremental.Replica). Replicas stay bit-identical
// to the primary after every pick, so a probe answers the same on any of
// them — pick sequences are therefore invariant in the worker count,
// which the differential tests in parallel_test.go assert oracle by
// oracle. Replicas keep up one way only: the primary commits each pick
// once (CommitDelta) and every replica applies the resulting delta
// (ApplyDelta), which for the copy-on-write oracles is an epoch check on
// the shared state. A serial run has no replicas and commits with plain
// Commit.
package budget

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/bitset"
	"repro/internal/submodular"
)

// Subset is one allowable subset with its cost (Definition 1). The subset
// itself may be given as a bitset (Items), as an element list (Elems), or
// both; at least one must be set. Elems is the representation the
// incremental probe loop consumes directly — callers that already hold
// element lists (sched's candidate items) pass them as Elems and skip the
// bitset round-trip entirely. When both are set they must denote the same
// subset; Elems must not contain out-of-universe elements and its order
// must be deterministic for the run to be reproducible.
type Subset struct {
	Items *bitset.Set
	Elems []int
	Cost  float64
	Label string // optional, for diagnostics
}

// unionInto adds the subset's items to dst.
func (s *Subset) unionInto(dst *bitset.Set) {
	if s.Items != nil {
		dst.UnionWith(s.Items)
		return
	}
	for _, e := range s.Elems {
		dst.Add(e)
	}
}

// Problem is an instance of submodular maximization with budget
// constraints: reach utility Threshold over F using the allowable Subsets.
type Problem struct {
	F         submodular.Function
	Subsets   []Subset
	Threshold float64
}

// Options tune the greedy.
type Options struct {
	// Eps is the bicriteria slack ε: stop at utility (1−ε)·Threshold.
	// Must be in (0, 1].
	Eps float64
	// Workers is the number of concurrent probe goroutines of the lazy
	// engine (LazyGreedy, Stepwise), each owning an incremental-oracle
	// replica; 0 and 1 both mean serial. Picked subsets are identical for
	// every worker count. Greedy ignores it.
	Workers int
	// PlainEval disables the incremental-oracle fast path even when F
	// provides one (submodular.AsIncremental), recomputing every probe
	// from scratch — the ablation A1/A3 baseline.
	PlainEval bool
}

// Step records one greedy pick, forming the trace used by the phase
// accounting of Lemma 2.1.2's proof.
type Step struct {
	Subset  int     // index into Problem.Subsets
	Gain    float64 // capped utility gain of this pick
	Ratio   float64 // Gain / Cost at pick time
	Cost    float64 // cumulative cost after this pick
	Utility float64 // capped utility after this pick
}

// Result is the output of a greedy run.
type Result struct {
	Chosen  []int // picked subset indices, in pick order
	Union   *bitset.Set
	Utility float64 // F of the union (uncapped)
	Cost    float64
	Evals   int64 // oracle calls consumed
	Trace   []Step
}

// Phases buckets the trace into the proof's phases: phase i covers picks
// made while utility < (1−1/2^i)·x. It returns the cost spent per phase.
func (r *Result) Phases(threshold float64) []float64 {
	var phases []float64
	phase := 1
	bound := func(i int) float64 { return (1 - 1/math.Pow(2, float64(i))) * threshold }
	spent := 0.0
	prevCost := 0.0
	for _, st := range r.Trace {
		for st.Utility >= bound(phase) && phase < 64 {
			phases = append(phases, spent)
			spent = 0
			phase++
		}
		spent += st.Cost - prevCost
		prevCost = st.Cost
	}
	phases = append(phases, spent)
	return phases
}

// ErrInfeasible is returned when no remaining subset improves utility but
// the target has not been reached; the instance cannot achieve the
// threshold with the given subsets.
var ErrInfeasible = errors.New("budget: threshold unreachable with given subsets")

const tol = 1e-12

// workspace is the per-run state shared by Greedy and LazyGreedy: the
// resolved worker count, the per-worker oracle replicas (or plain-Eval
// probe buffers), and the candidates' materialized item lists.
// Everything is allocated once per run — the probe loops and parallel
// phases allocate nothing per round.
type workspace struct {
	f       submodular.Function
	workers int
	x       float64 // utility cap (Problem.Threshold)

	// Incremental fast path: replicas[0] is the primary oracle and
	// replicas[1..W-1] its probe replicas. nil on the plain-Eval path.
	replicas []submodular.Incremental
	itemsOf  [][]int

	// pendingDelta is the last pick's delta (workers > 1), awaiting
	// ApplyDelta on replicas 1..W-1 at the start of the next parallel
	// phase. The primary commits in markPicked on the coordinating
	// goroutine — before the worker goroutines launch, so the commit
	// happens-before every ApplyDelta.
	pendingDelta submodular.Delta

	// inline pins the workspace to sequential shard execution. It is set
	// when the worker slots alias the primary oracle (single CPU, see
	// newWorkspace): aliased slots must never probe concurrently —
	// matcher probes mutate and roll back shared state — and GOMAXPROCS
	// can change mid-run, so the aliasing decision is remembered here
	// rather than re-derived per phase.
	inline bool

	// Plain-Eval path: the current union plus one probe buffer per
	// worker. cur is maintained on both paths (it is Result.Union).
	cur     *bitset.Set
	scratch []*bitset.Set

	// Lazy revalidation result buffers, one slot per batch entry.
	batchGain  []float64
	batchRatio []float64
	batchOK    []bool

	// Initial-gain recording for Stepwise warm starts: while recordZero
	// is set (no pick made yet), every probe's capped gain against the
	// initial base set is noted per subset. Parallel phases write
	// distinct indices, so the slices need no locking.
	recordZero bool
	zeroGain   []float64
	zeroSeen   []bool
}

// newWorkspace resolves options against the problem and allocates all
// per-run scratch. f must be the counting wrapper the run bills probes to.
func newWorkspace(f submodular.Function, p Problem, opts Options) *workspace {
	workers := opts.Workers
	if workers > len(p.Subsets) {
		workers = len(p.Subsets)
	}
	if workers < 1 {
		workers = 1
	}
	ws := &workspace{
		f:       f,
		workers: workers,
		x:       p.Threshold,
		cur:     bitset.New(p.F.Universe()),
	}
	if !opts.PlainEval {
		if inc, ok := submodular.AsIncremental(f); ok {
			ws.replicas = make([]submodular.Incremental, workers)
			ws.replicas[0] = inc
			// On a single schedulable CPU the shards run inline
			// (runWorkers), so the worker slots alias the primary oracle
			// outright instead of holding replicas: probes are pure, and
			// syncReplica's ApplyDelta of the just-committed delta is a
			// current-epoch no-op under the epoch contract. This is what
			// keeps Workers > 1 allocation-flat on single-core hosts.
			ws.inline = workers > 1 && runtime.GOMAXPROCS(0) == 1
			for w := 1; w < workers; w++ {
				if ws.inline {
					ws.replicas[w] = inc
				} else {
					ws.replicas[w] = inc.Replica()
				}
			}
			ws.itemsOf = make([][]int, len(p.Subsets))
			for i := range p.Subsets {
				if p.Subsets[i].Elems != nil {
					ws.itemsOf[i] = p.Subsets[i].Elems
				} else {
					ws.itemsOf[i] = p.Subsets[i].Items.Elements()
				}
			}
		}
	}
	if ws.replicas == nil {
		ws.scratch = make([]*bitset.Set, workers)
		for w := range ws.scratch {
			ws.scratch[w] = bitset.New(p.F.Universe())
		}
	}
	return ws
}

// markPicked commits the chosen subset on the primary oracle. The caller
// updates cur itself (both paths need the union). Probes stop counting as
// initial-state gains from here on.
//
// A serial run commits with plain Commit. With workers the primary
// commits with CommitDelta, on the coordinating goroutine between probe
// phases, and the delta is parked for replicas 1..W-1 to apply at the
// start of the next parallel phase. After the last pick only the
// primary's Value is read, so the replicas are left one delta behind.
func (ws *workspace) markPicked(i int) {
	ws.recordZero = false
	switch {
	case ws.replicas == nil:
	case ws.workers == 1:
		ws.replicas[0].Commit(ws.itemsOf[i])
	default:
		ws.pendingDelta, _ = ws.replicas[0].CommitDelta(ws.itemsOf[i])
	}
}

// syncReplica brings worker w's replica up to the primary inside a
// parallel phase by applying the parked delta d (nil when no pick is
// pending; an epoch check for copy-on-write replicas and aliased slots).
// The coordinating goroutine clears the parked delta after the phase.
func (ws *workspace) syncReplica(w int, d submodular.Delta) {
	if w == 0 || d == nil {
		return // the primary committed in markPicked
	}
	if err := ws.replicas[w].ApplyDelta(d); err != nil {
		panic("budget: replica rejected its primary's delta: " + err.Error())
	}
}

// utility returns the uncapped F of the current union: the committed value
// when running incrementally (cur mirrors the oracle's base set by
// construction), a fresh Eval otherwise.
func (ws *workspace) utility() float64 {
	if ws.replicas != nil {
		return ws.replicas[0].Value()
	}
	return ws.f.Eval(ws.cur)
}

// probe evaluates candidate i on worker w's replica (or probe buffer) and
// returns its capped gain and ratio against curU. base must be worker w's
// committed Value() on the incremental path. Probes are pure with respect
// to worker identity: replicas hold bit-identical state, so any worker
// computes the same answer for the same candidate.
func (ws *workspace) probe(w, i int, base, curU float64, subsets []Subset) (gain, ratio float64, ok bool) {
	var v float64
	if ws.replicas != nil {
		v = math.Min(ws.x, base+ws.replicas[w].Gain(ws.itemsOf[i]))
	} else {
		v = math.Min(ws.x, evalUnion(ws.f, ws.scratch[w], ws.cur, &subsets[i]))
	}
	gain = v - curU
	if ws.recordZero {
		ws.zeroGain[i] = gain
		ws.zeroSeen[i] = true
	}
	if gain <= tol {
		return 0, 0, false
	}
	ratio = math.Inf(1)
	if subsets[i].Cost > tol {
		ratio = gain / subsets[i].Cost
	}
	return gain, ratio, true
}

// base returns worker w's committed oracle value (0 on the plain path,
// where probes evaluate the union directly).
func (ws *workspace) base(w int) float64 {
	if ws.replicas != nil {
		return ws.replicas[w].Value()
	}
	return 0
}

// runWorkers invokes fn(w) for w = 0..ws.workers-1 concurrently, running
// shard 0 on the calling goroutine, and waits for all of them. Inline
// workspaces (aliased worker slots — their probes MUST NOT overlap) and
// runs that find only one schedulable CPU (goroutines could never
// overlap anyway) run the shards sequentially in worker order instead —
// the partitioning, replica assignment, and results are identical either
// way (that is the worker-count determinism contract), and skipping the
// per-round spawns is what keeps Workers > 1 near-free on single-core
// hosts.
func (ws *workspace) runWorkers(fn func(w int)) {
	if ws.inline || runtime.GOMAXPROCS(0) == 1 {
		for w := 0; w < ws.workers; w++ {
			fn(w)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(ws.workers - 1)
	for w := 1; w < ws.workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	fn(0)
	wg.Wait()
}

// Greedy runs the algorithm of Lemma 2.1.2 as the plain eager loop: every
// round probes every unpicked subset and takes the best ratio. On success
// the result has capped utility at least (1−ε)·Threshold. It is the
// serial reference the lazy engine is checked against, not a production
// path: it runs on one goroutine and ignores Workers.
//
// When F provides an incremental oracle (submodular.AsIncremental) and
// PlainEval is not set, every probe F(S ∪ Sᵢ) is answered by a stateful
// oracle's Gain instead of a from-scratch Eval. For integer-valued
// oracles (coverage with unit weights, the matching utilities) the pick
// sequence is also bit-identical to the plain path; for float-valued
// oracles the incremental and plain paths sum the same terms in different
// orders, so picks can differ between those two paths at exact
// floating-point ties.
func Greedy(p Problem, opts Options) (*Result, error) {
	if err := validate(p, opts); err != nil {
		return nil, err
	}
	f := submodular.NewCounting(p.F)
	x := p.Threshold
	target := (1 - opts.Eps) * x

	ws := newWorkspace(f, p, Options{PlainEval: opts.PlainEval})
	cur := ws.cur
	curU := math.Min(x, ws.utility())
	res := &Result{Union: cur}
	picked := make([]bool, len(p.Subsets))

	for curU < target-tol {
		base := ws.base(0)
		best, bestGain, bestRatio := -1, 0.0, math.Inf(-1)
		for i := range p.Subsets {
			if picked[i] {
				continue
			}
			if gain, ratio, ok := ws.probe(0, i, base, curU, p.Subsets); ok && ratio > bestRatio {
				best, bestGain, bestRatio = i, gain, ratio
			}
		}
		if best == -1 {
			res.Utility = ws.utility()
			res.Evals = f.Calls()
			return res, fmt.Errorf("%w: stuck at utility %g of %g", ErrInfeasible, curU, x)
		}
		picked[best] = true
		ws.markPicked(best)
		p.Subsets[best].unionInto(cur)
		curU += bestGain
		res.Chosen = append(res.Chosen, best)
		res.Cost += p.Subsets[best].Cost
		res.Trace = append(res.Trace, Step{
			Subset: best, Gain: bestGain, Ratio: bestRatio, Cost: res.Cost, Utility: curU,
		})
	}
	res.Utility = ws.utility()
	res.Evals = f.Calls()
	return res, nil
}

// evalUnion evaluates F(cur ∪ s) in the caller-provided scratch set, so
// the plain-Eval probe loop allocates nothing per candidate.
func evalUnion(f submodular.Function, scratch, cur *bitset.Set, s *Subset) float64 {
	scratch.CopyFrom(cur)
	s.unionInto(scratch)
	return f.Eval(scratch)
}

func validate(p Problem, opts Options) error {
	if opts.Eps <= 0 || opts.Eps > 1 {
		return fmt.Errorf("budget: Eps must be in (0,1], got %g", opts.Eps)
	}
	if p.Threshold < 0 {
		return fmt.Errorf("budget: negative threshold %g", p.Threshold)
	}
	n := p.F.Universe()
	for i, s := range p.Subsets {
		if s.Items == nil && s.Elems == nil {
			return fmt.Errorf("budget: subset %d has neither Items nor Elems", i)
		}
		if s.Items != nil && s.Items.Universe() != n {
			return fmt.Errorf("budget: subset %d universe %d, want %d", i, s.Items.Universe(), n)
		}
		if s.Items == nil {
			for _, e := range s.Elems {
				if e < 0 || e >= n {
					return fmt.Errorf("budget: subset %d element %d outside universe %d", i, e, n)
				}
			}
		}
		if s.Cost < 0 {
			return fmt.Errorf("budget: subset %d has negative cost %g", i, s.Cost)
		}
	}
	return nil
}

// lazyEntry is a heap entry holding a stale ratio upper bound.
type lazyEntry struct {
	idx   int
	ratio float64
	gain  float64
	round int // greedy round when the ratio was computed
}

// lazyHeap is a manual max-heap of lazyEntry ordered by (ratio desc, idx
// asc) — a total order, since an index appears at most once, so the pop
// sequence is implementation-independent. container/heap was dropped: its
// interface{}-boxed Push allocated on every reinsertion, one alloc per
// stale revalidation (see TestLazyHeapPushDoesNotAllocate).
type lazyHeap []lazyEntry

func (h lazyHeap) less(i, j int) bool {
	if h[i].ratio != h[j].ratio {
		return h[i].ratio > h[j].ratio
	}
	return h[i].idx < h[j].idx
}

// init establishes the heap invariant over arbitrary contents.
func (h lazyHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *lazyHeap) push(e lazyEntry) {
	*h = append(*h, e)
	hh := *h
	for i := len(hh) - 1; i > 0; {
		p := (i - 1) / 2
		if !hh.less(i, p) {
			break
		}
		hh[i], hh[p] = hh[p], hh[i]
		i = p
	}
}

func (h *lazyHeap) pop() lazyEntry {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	*h = hh[:n]
	hh[:n].siftDown(0)
	return top
}

func (h lazyHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// initHeap probes every candidate and returns the initialized lazy heap.
// With multiple workers the probes are sharded across the replicas; the
// heap is then built from the index-ordered results, so its contents are
// identical to a serial build (and so is the probe count: both paths probe
// every candidate exactly once).
func (ws *workspace) initHeap(subsets []Subset, curU float64) lazyHeap {
	n := len(subsets)
	h := make(lazyHeap, 0, n)
	if ws.workers == 1 {
		base := ws.base(0)
		for i := 0; i < n; i++ {
			if gain, ratio, ok := ws.probe(0, i, base, curU, subsets); ok {
				h = append(h, lazyEntry{idx: i, ratio: ratio, gain: gain})
			}
		}
		h.init()
		return h
	}
	gains := make([]float64, n)
	ratios := make([]float64, n)
	oks := make([]bool, n)
	chunk := (n + ws.workers - 1) / ws.workers
	ws.runWorkers(func(w int) {
		base := ws.base(w)
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			gains[i], ratios[i], oks[i] = ws.probe(w, i, base, curU, subsets)
		}
	})
	for i := 0; i < n; i++ {
		if oks[i] {
			h = append(h, lazyEntry{idx: i, ratio: ratios[i], gain: gains[i]})
		}
	}
	h.init()
	return h
}

// revalidate re-probes a batch of stale heap entries against the current
// solution and reinserts the still-useful ones stamped with the current
// round. Workers first apply the pending delta to their replica, then
// split the batch; pushes happen on the calling goroutine in batch order.
// Which worker probes which entry cannot matter: replicas are identical.
func (ws *workspace) revalidate(h *lazyHeap, batch []lazyEntry, subsets []Subset, curU float64, round int) {
	if ws.workers == 1 {
		base := ws.base(0)
		for _, e := range batch {
			if gain, ratio, ok := ws.probe(0, e.idx, base, curU, subsets); ok {
				h.push(lazyEntry{idx: e.idx, ratio: ratio, gain: gain, round: round})
			}
		}
		return
	}
	if len(ws.batchOK) < len(batch) {
		ws.batchGain = make([]float64, len(batch))
		ws.batchRatio = make([]float64, len(batch))
		ws.batchOK = make([]bool, len(batch))
	}
	d := ws.pendingDelta
	ws.runWorkers(func(w int) {
		ws.syncReplica(w, d)
		base := ws.base(w)
		for bi := w; bi < len(batch); bi += ws.workers {
			ws.batchGain[bi], ws.batchRatio[bi], ws.batchOK[bi] = ws.probe(w, batch[bi].idx, base, curU, subsets)
		}
	})
	ws.pendingDelta = nil
	for bi, e := range batch {
		if ws.batchOK[bi] {
			h.push(lazyEntry{idx: e.idx, ratio: ws.batchRatio[bi], gain: ws.batchGain[bi], round: round})
		}
	}
}

// LazyGreedy computes the same solution as Greedy with (typically far)
// fewer oracle calls, using stale-ratio lazy evaluation. Like Greedy it
// takes the incremental fast path when F provides one, compounding the
// two savings: fewer probes, and each probe cheaper. With Workers > 1 the
// stale entries at the top of the heap are revalidated in concurrent
// batches of up to Workers entries across the oracle replicas — the picks
// are still exactly Greedy's (the heap order is total and probes answer
// identically on every replica); a batch may merely re-probe up to
// Workers−1 entries that serial evaluation would have skipped, so Evals
// can exceed the serial count slightly.
func LazyGreedy(p Problem, opts Options) (*Result, error) {
	s, err := newStepwise(p, opts, nil, false)
	if err != nil {
		return nil, err
	}
	return s.Solve()
}
