// Package conformance is the reusable invariant harness behind the
// scenario-matrix tests: exported checkers for the two contracts every
// cost model and every solve path must satisfy, callable from ordinary
// tests, fuzz targets, and future packages alike.
//
// The point of the package is that adding a cost model (or a mutation
// kind, or a solve path) must not require writing a new test file — the
// model becomes one row in the matrix test (matrix_test.go) and every
// checker here runs against it:
//
//   - CostModel contract (power package doc): Cost never panics, never
//     returns NaN/−Inf/negative, prices out-of-range processors and
//     beyond-horizon slots at +Inf when the model declares bounds, and is
//     safe for concurrent readers (CheckCostModel, CheckMonotone,
//     CheckConcurrent).
//   - Solver contract: schedules are feasible (Schedule.Validate), the
//     lazy engine on either oracle picks exactly what the eager serial
//     from-scratch reference picks in every mode, the parallel greedy is
//     invariant in Workers, and a
//     session's warm re-solve after any mutation script is byte-identical
//     to a cold from-scratch solve of the equivalent instance
//     (CheckSolve, CheckPrize, CheckSession).
//
// Checkers return errors instead of taking a *testing.T so that fuzz
// targets and non-test callers can drive them; the matrix test wraps them
// with t.Fatal.
package conformance

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/power"
	"repro/internal/sched"
)

// Horizoned is implemented by cost models that price a bounded horizon
// (power.TimeOfUse, power.Composite). CheckCostModel uses it to pin the
// boundary behavior: the last priced slot must be priceable in principle
// (finite or blocked-+Inf, never a panic) and anything beyond must be
// +Inf.
type Horizoned interface {
	Horizon() int
}

// CheckCostModel exercises the no-panic / no-NaN half of the CostModel
// contract over a grid of in-range, out-of-range, inverted, and
// beyond-horizon queries. procs and horizon describe the instance the
// model was built for.
func CheckCostModel(m power.CostModel, procs, horizon int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("conformance: Cost panicked: %v", r)
		}
	}()
	probe := func(proc, start, end int) error {
		c := m.Cost(proc, start, end)
		if math.IsNaN(c) {
			return fmt.Errorf("conformance: Cost(%d,%d,%d) = NaN", proc, start, end)
		}
		if math.IsInf(c, -1) || c < 0 {
			return fmt.Errorf("conformance: Cost(%d,%d,%d) = %g, want >= 0 or +Inf", proc, start, end, c)
		}
		return nil
	}
	for _, proc := range []int{-3, -1, 0, procs - 1, procs, procs + 7} {
		for _, iv := range [][2]int{{0, 1}, {0, horizon}, {-2, 1}, {horizon - 1, horizon + 4}, {5, 2}, {-5, -1}} {
			if err := probe(proc, iv[0], iv[1]); err != nil {
				return err
			}
		}
	}
	// Per-processor models must mark processors they cannot price at +Inf.
	// A uniform model (Affine, Superlinear, SleepState) may price any
	// index; a bounded one must not invent prices past its slices. We
	// detect boundedness by the model reporting +Inf for proc == procs and
	// then require consistency arbitrarily far out.
	if math.IsInf(m.Cost(procs, 0, 1), 1) {
		if c := m.Cost(procs+1000, 0, 1); !math.IsInf(c, 1) {
			return fmt.Errorf("conformance: proc %d priced +Inf but proc %d = %g", procs, procs+1000, c)
		}
	}
	if h, ok := m.(Horizoned); ok {
		if got := h.Horizon(); got != horizon {
			return fmt.Errorf("conformance: Horizon() = %d, want %d", got, horizon)
		}
		if c := m.Cost(0, horizon-1, horizon+1); !math.IsInf(c, 1) {
			return fmt.Errorf("conformance: interval past Horizon() priced %g, want +Inf", c)
		}
		if c := m.Cost(0, horizon, horizon+1); !math.IsInf(c, 1) {
			return fmt.Errorf("conformance: interval beyond Horizon() priced %g, want +Inf", c)
		}
	}
	return nil
}

// CheckMonotone verifies interval monotonicity: whenever [s,e) ⊆ [s',e'),
// Cost(p,s,e) ≤ Cost(p,s',e') — extending an awake interval never gets
// cheaper. (+Inf inside forces +Inf outside: an unavailable slot poisons
// every superinterval.) Only meaningful for models documented monotone;
// the matrix flags which rows opt in.
func CheckMonotone(m power.CostModel, procs, horizon int) error {
	for proc := 0; proc < procs; proc++ {
		for s := 0; s < horizon; s++ {
			prev := m.Cost(proc, s, s+1)
			for e := s + 2; e <= horizon; e++ {
				c := m.Cost(proc, s, e)
				if c < prev-1e-9 {
					return fmt.Errorf("conformance: Cost(%d,%d,%d) = %g < Cost(%d,%d,%d) = %g — not monotone",
						proc, s, e, c, proc, s, e-1, prev)
				}
				prev = c
			}
		}
	}
	return nil
}

// CheckConcurrent hammers Cost from several goroutines over the full
// query grid. Run under the race detector (the CI -race job runs the
// matrix test) this catches unsynchronized internal state; without it, it
// still catches panics and torn results that surface as contract
// violations.
func CheckConcurrent(m power.CostModel, procs, horizon int) error {
	const goroutines = 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("conformance: concurrent Cost panicked: %v", r)
				}
			}()
			for rep := 0; rep < 50; rep++ {
				for proc := -1; proc <= procs; proc++ {
					for s := 0; s < horizon; s += 1 + g%3 {
						c := m.Cost(proc, s, s+1+(g+rep)%4)
						if math.IsNaN(c) {
							errs <- fmt.Errorf("conformance: concurrent Cost(%d,%d,..) = NaN", proc, s)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// CheckSolve exercises the solver contract on one instance: the eager
// serial plain-oracle greedy (sched.ScheduleAllReference) is the
// baseline, and ScheduleAll's lazy engine — over from-scratch and
// incremental oracles, at Workers ∈ {1,2,4,8} — must produce a
// byte-identical schedule that Schedule.Validate accepts. If the
// baseline fails (e.g. the model's
// blocked slots make the instance unschedulable), every path must fail
// the same way.
func CheckSolve(ins *sched.Instance, opts sched.Options) error {
	baseOpts := opts
	baseOpts.PlainOracle = true
	base, baseErr := sched.ScheduleAllReference(ins, baseOpts)
	if baseErr == nil {
		if err := base.Validate(ins); err != nil {
			return fmt.Errorf("conformance: baseline schedule infeasible: %w", err)
		}
	}
	for _, plain := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 8} {
			o := opts
			o.PlainOracle = plain
			o.Workers = workers
			got, err := sched.ScheduleAll(ins, o)
			label := fmt.Sprintf("plain=%t workers=%d", plain, workers)
			if err := sameOutcome(label, ins, base, baseErr, got, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckPrize is CheckSolve for the prize modes at value target z:
// PrizeCollecting and PrizeCollectingExact, serial and at Workers = 4,
// must match the eager serial reference (sched.PrizeCollectingReference,
// PrizeCollectingExactReference) on the same oracle. The weighted
// utility is float-valued, so see the budget package doc for where that
// comparison is exact.
func CheckPrize(ins *sched.Instance, z float64, opts sched.Options) error {
	type solver func(*sched.Instance, float64, sched.Options) (*sched.Schedule, error)
	for _, mode := range []struct {
		name     string
		ref, run solver
	}{
		{"prize", sched.PrizeCollectingReference, sched.PrizeCollecting},
		{"prize-exact", sched.PrizeCollectingExactReference, sched.PrizeCollectingExact},
	} {
		base, baseErr := mode.ref(ins, z, opts)
		for _, workers := range []int{1, 4} {
			o := opts
			o.Workers = workers
			got, err := mode.run(ins, z, o)
			if err := sameOutcome(fmt.Sprintf("%s workers=%d", mode.name, workers), ins, base, baseErr, got, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameOutcome checks one solve path's result against the baseline's:
// both fail alike, or both succeed with byte-identical, feasible
// schedules.
func sameOutcome(label string, ins *sched.Instance, base *sched.Schedule, baseErr error, got *sched.Schedule, err error) error {
	if baseErr != nil {
		if err == nil {
			return fmt.Errorf("conformance: %s solved an instance the baseline rejects (%v)", label, baseErr)
		}
		if !errors.Is(err, sched.ErrUnschedulable) || !errors.Is(baseErr, sched.ErrUnschedulable) {
			if err.Error() != baseErr.Error() {
				return fmt.Errorf("conformance: %s error %q, baseline %q", label, err, baseErr)
			}
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("conformance: %s: %w", label, err)
	}
	if err := got.SameAs(base); err != nil {
		return fmt.Errorf("conformance: %s diverges from baseline: %w", label, err)
	}
	if err := got.Validate(ins); err != nil {
		return fmt.Errorf("conformance: %s schedule infeasible: %w", label, err)
	}
	return nil
}

// MutationOp selects a session mutation kind in a Script.
type MutationOp int

const (
	// OpAddJob appends Mutation.Job.
	OpAddJob MutationOp = iota
	// OpRemoveJob deletes job Mutation.Index.
	OpRemoveJob
	// OpBlock masks slot (Mutation.Proc, Mutation.Time) unavailable.
	OpBlock
	// OpAdvance grows the horizon to Mutation.Horizon.
	OpAdvance
)

func (op MutationOp) String() string {
	switch op {
	case OpAddJob:
		return "add_job"
	case OpRemoveJob:
		return "remove_job"
	case OpBlock:
		return "block"
	case OpAdvance:
		return "advance_horizon"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Mutation is one step of a session script; exactly the fields its Op
// needs are read.
type Mutation struct {
	Op         MutationOp
	Job        sched.Job
	Index      int
	Proc, Time int
	Horizon    int
}

// CheckSession runs a mutation script through a sched.Session and, after
// the initial solve and after every mutation, compares the session's warm
// solve against a cold from-scratch ScheduleAll of the equivalent
// instance. The two must be byte-identical (Schedule.SameAs) — or fail
// identically when a mutation (e.g. blocking a load-bearing slot) makes
// the instance unschedulable. Mutations the session rejects (out-of-range
// indexes, shrinking horizons) are fine: the error is recorded and the
// state must be unchanged, which the next comparison verifies.
func CheckSession(ins *sched.Instance, opts sched.Options, script []Mutation) error {
	sess, err := sched.NewSession(ins, opts)
	if err != nil {
		return fmt.Errorf("conformance: NewSession: %w", err)
	}
	compare := func(step string) error {
		warm, warmErr := sess.Solve()
		cold, coldErr := sched.ScheduleAll(sess.Instance(), opts)
		if (warmErr == nil) != (coldErr == nil) {
			return fmt.Errorf("conformance: %s: warm err %v vs cold err %v", step, warmErr, coldErr)
		}
		if warmErr != nil {
			if errors.Is(warmErr, sched.ErrUnschedulable) != errors.Is(coldErr, sched.ErrUnschedulable) {
				return fmt.Errorf("conformance: %s: warm %v vs cold %v disagree on unschedulability", step, warmErr, coldErr)
			}
			return nil
		}
		if err := warm.SameAs(cold); err != nil {
			return fmt.Errorf("conformance: %s: warm solve diverges from cold: %w", step, err)
		}
		// A repeat solve with no mutation must come from the session cache
		// and still match.
		again, err := sess.Solve()
		if err != nil {
			return fmt.Errorf("conformance: %s: cached re-solve: %w", step, err)
		}
		if err := again.SameAs(warm); err != nil {
			return fmt.Errorf("conformance: %s: cached re-solve diverges: %w", step, err)
		}
		return nil
	}
	if err := compare("initial solve"); err != nil {
		return err
	}
	for i, m := range script {
		switch m.Op {
		case OpAddJob:
			_, err = sess.AddJob(m.Job)
		case OpRemoveJob:
			err = sess.RemoveJob(m.Index)
		case OpBlock:
			err = sess.SetUnavailable(m.Proc, m.Time)
		case OpAdvance:
			err = sess.AdvanceHorizon(m.Horizon)
		default:
			return fmt.Errorf("conformance: script step %d: unknown op %v", i, m.Op)
		}
		// A rejected mutation must leave the session consistent; the
		// comparison below proves it either way.
		if err := compare(fmt.Sprintf("after step %d (%v, applied=%t)", i, m.Op, err == nil)); err != nil {
			return err
		}
	}
	return nil
}
