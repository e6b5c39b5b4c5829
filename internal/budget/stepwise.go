package budget

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/submodular"
)

// Hint seeds a warm-started Stepwise run with an upper bound on one
// subset's initial gain. GainBound must be a valid upper bound on the
// capped gain min(Threshold, F(S₀ ∪ Sᵢ)) − min(Threshold, F(S₀)) of the
// subset against the solver's initial base set S₀ (the empty set for a
// fresh oracle). Lazy evaluation only needs upper bounds to reproduce the
// exact greedy pick sequence, so a caller that remembers gains from a
// previous solve of a *similar* problem can seed them here — suitably
// inflated for whatever changed — and skip the full initial probe sweep.
// An under-estimate breaks the greedy's exactness; when in doubt use a
// structural bound (e.g. |Sᵢ| for integral rank-like utilities).
type Hint struct {
	Subset    int     // index into Problem.Subsets
	GainBound float64 // upper bound on the subset's initial capped gain
}

// Stepwise is the resumable form of the lazy budgeted greedy: the same
// pick sequence as Greedy/LazyGreedy, advanced one pick at a time, with
// optional warm-start hints. It exists so that callers owning long-lived
// solver state (sched.Session) can re-solve after a small instance
// mutation by replaying the still-valid pick prefix out of the seeded
// heap instead of re-probing every candidate from zero.
//
// A Stepwise must not be shared between goroutines; Options.Workers
// parallelism happens inside each Step call, as in LazyGreedy.
type Stepwise struct {
	p    Problem
	opts Options
	f    *submodular.Counting
	ws   *workspace

	h     lazyHeap
	batch []lazyEntry
	round int

	curU   float64
	target float64
	res    *Result
	done   bool
	err    error
}

// NewStepwise validates the problem and prepares a resumable run. With
// hints == nil every candidate is probed up front (exactly LazyGreedy's
// initial heap build). With hints, the heap is seeded from the bounds
// instead — zero oracle calls — and candidates are only probed when they
// surface at the top; subsets not covered by any hint are probed fresh.
// Hints must be unique and in range.
func NewStepwise(p Problem, opts Options, hints []Hint) (*Stepwise, error) {
	return newStepwise(p, opts, hints, true)
}

// newStepwise is NewStepwise; record keeps the initial-state gains that
// ZeroGains reports, which only warm-starting callers read.
func newStepwise(p Problem, opts Options, hints []Hint, record bool) (*Stepwise, error) {
	if err := validate(p, opts); err != nil {
		return nil, err
	}
	f := submodular.NewCounting(p.F)
	ws := newWorkspace(f, p, opts)
	s := &Stepwise{
		p:    p,
		opts: opts,
		f:    f,
		ws:   ws,
	}
	s.curU = math.Min(p.Threshold, ws.utility())
	s.target = (1 - opts.Eps) * p.Threshold
	s.res = &Result{Union: ws.cur}

	// Record initial-state gains while no pick has been made: a future
	// warm start derives its hint bounds from them.
	if record {
		ws.zeroGain = make([]float64, len(p.Subsets))
		ws.zeroSeen = make([]bool, len(p.Subsets))
		ws.recordZero = true
	}

	if hints == nil {
		s.h = ws.initHeap(p.Subsets, s.curU)
		return s, nil
	}
	hinted := make([]bool, len(p.Subsets))
	s.h = make(lazyHeap, 0, len(p.Subsets))
	for _, hint := range hints {
		if hint.Subset < 0 || hint.Subset >= len(p.Subsets) {
			return nil, fmt.Errorf("budget: hint subset %d out of range [0,%d)", hint.Subset, len(p.Subsets))
		}
		if hinted[hint.Subset] {
			return nil, fmt.Errorf("budget: duplicate hint for subset %d", hint.Subset)
		}
		hinted[hint.Subset] = true
		bound := math.Min(p.Threshold, hint.GainBound)
		if bound <= tol {
			// A true upper bound at or below zero can never grow under a
			// monotone submodular F, so the subset is dropped for good —
			// exactly as a non-positive probe drops it in initHeap.
			continue
		}
		ratio := math.Inf(1)
		if c := p.Subsets[hint.Subset].Cost; c > tol {
			ratio = bound / c
		}
		// round −1 marks the entry stale: it is revalidated with a real
		// probe before it can ever be picked.
		s.h = append(s.h, lazyEntry{idx: hint.Subset, ratio: ratio, gain: bound, round: -1})
	}
	var unhinted []int
	for i := range p.Subsets {
		if !hinted[i] {
			unhinted = append(unhinted, i)
		}
	}
	// Probe the unhinted subsets like initHeap's sweep: sharded across
	// the worker replicas (no pick has happened, so there is nothing to
	// replay), results appended in index order for a deterministic heap.
	if n := len(unhinted); n > 0 {
		gains := make([]float64, n)
		ratios := make([]float64, n)
		oks := make([]bool, n)
		ws.runWorkers(func(w int) {
			base := ws.base(w)
			for u := w; u < n; u += ws.workers {
				gains[u], ratios[u], oks[u] = ws.probe(w, unhinted[u], base, s.curU, p.Subsets)
			}
		})
		for u, i := range unhinted {
			if oks[u] {
				s.h = append(s.h, lazyEntry{idx: i, ratio: ratios[u], gain: gains[u]})
			}
		}
	}
	s.h.init()
	return s, nil
}

// ZeroGains reports, per subset, the capped gain measured against the
// run's initial base set, and whether the run probed that subset before
// its first pick. Only seen entries are meaningful; a warm run touches
// only the candidates that surfaced near the top of the heap, so callers
// keep their previous records for the rest.
func (s *Stepwise) ZeroGains() (gain []float64, seen []bool) {
	return s.ws.zeroGain, s.ws.zeroSeen
}

// Done reports whether the run has reached its target (or failed).
func (s *Stepwise) Done() bool { return s.done }

// Result returns the run's result so far: picks, cost, and trace reflect
// the steps taken; Utility and Evals are refreshed on every call.
func (s *Stepwise) Result() *Result {
	s.res.Utility = s.ws.utility()
	s.res.Evals = s.f.Calls()
	return s.res
}

// Step advances the run by one greedy pick. It returns (step, true, nil)
// after a pick, (Step{}, false, nil) when the target was already met, and
// (Step{}, false, err) when no remaining subset can improve utility
// (ErrInfeasible). The pick sequence is exactly Greedy's.
func (s *Stepwise) Step() (Step, bool, error) {
	if s.err != nil {
		return Step{}, false, s.err
	}
	if s.done || s.curU >= s.target-tol {
		s.done = true
		return Step{}, false, nil
	}
	var pick lazyEntry
	found := false
	// Batch size ramps from the available parallelism to 8× within one
	// cascade, as in LazyGreedy: serial runs keep the classical
	// pop-one/re-probe loop with identical probe counts. Parallelism is
	// capped at GOMAXPROCS, not just Workers: batches wider than the CPU
	// budget can't overlap, so on a single-core host a Workers=4 run
	// re-probes exactly what the serial run would — speculative probes
	// only pay for themselves when they actually run concurrently. Picks
	// are identical regardless (batching never changes the heap order).
	par := s.ws.workers
	if g := runtime.GOMAXPROCS(0); g < par {
		par = g
	}
	batchCap := par
	for len(s.h) > 0 {
		if s.h[0].round == s.round {
			pick = s.h.pop()
			found = true
			break
		}
		s.batch = s.batch[:0]
		for len(s.h) > 0 && s.h[0].round != s.round && len(s.batch) < batchCap {
			s.batch = append(s.batch, s.h.pop())
		}
		s.ws.revalidate(&s.h, s.batch, s.p.Subsets, s.curU, s.round)
		if par > 1 && batchCap < 8*par {
			batchCap *= 2
		}
	}
	if !found {
		s.err = fmt.Errorf("%w: stuck at utility %g of %g", ErrInfeasible, s.curU, s.p.Threshold)
		s.Result()
		return Step{}, false, s.err
	}
	s.ws.markPicked(pick.idx)
	s.p.Subsets[pick.idx].unionInto(s.ws.cur)
	s.curU += pick.gain
	s.round++
	s.res.Chosen = append(s.res.Chosen, pick.idx)
	s.res.Cost += s.p.Subsets[pick.idx].Cost
	st := Step{
		Subset: pick.idx, Gain: pick.gain, Ratio: pick.ratio, Cost: s.res.Cost, Utility: s.curU,
	}
	s.res.Trace = append(s.res.Trace, st)
	if s.curU >= s.target-tol {
		s.done = true
	}
	return st, true, nil
}

// Solve runs Step to completion and returns the final result — identical
// picks to LazyGreedy (and, by the lazy-evaluation argument, to Greedy).
func (s *Stepwise) Solve() (*Result, error) {
	for {
		_, ok, err := s.Step()
		if err != nil {
			return s.res, err
		}
		if !ok {
			return s.Result(), nil
		}
	}
}
