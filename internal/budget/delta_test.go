package budget

import (
	"math/rand"
	"slices"
	"testing"
)

// TestDeltaReplayDeterminism is the replication contract: for every
// incremental oracle, LazyGreedy at Workers > 1 — replicas kept in step
// only by the primary's deltas — picks exactly what the serial Greedy
// reference picks, at every worker count.
func TestDeltaReplayDeterminism(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 17))
		for oracle, p := range oracleProblems(rng) {
			ref, refErr := Greedy(p, Options{Eps: 0.05})
			for _, workers := range []int{2, 4, 8} {
				got, gotErr := LazyGreedy(p, Options{Eps: 0.05, Workers: workers})
				if (refErr == nil) != (gotErr == nil) {
					t.Fatalf("%s workers=%d: feasibility disagreement: %v vs %v", oracle, workers, refErr, gotErr)
				}
				if refErr != nil {
					continue
				}
				if !slices.Equal(ref.Chosen, got.Chosen) {
					t.Fatalf("%s workers=%d: picks diverged:\nserial %v\ndelta  %v", oracle, workers, ref.Chosen, got.Chosen)
				}
				if ref.Cost != got.Cost || ref.Utility != got.Utility {
					t.Fatalf("%s workers=%d: cost/utility diverged: (%v,%v) vs (%v,%v)",
						oracle, workers, ref.Cost, ref.Utility, got.Cost, got.Utility)
				}
			}
		}
	}
}

// TestElemsSubsetsEquivalent checks the element-list subset
// representation end to end: a problem whose subsets carry only Elems
// solves identically — picks, cost, utility, union — to the same problem
// with bitset Items, on the serial, parallel, and plain-Eval paths.
func TestElemsSubsetsEquivalent(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*6151 + 29))
		for oracle, p := range oracleProblems(rng) {
			elemsP := p
			elemsP.Subsets = make([]Subset, len(p.Subsets))
			for i, s := range p.Subsets {
				elemsP.Subsets[i] = Subset{Elems: s.Items.Elements(), Cost: s.Cost, Label: s.Label}
			}
			for _, opts := range []Options{
				{Eps: 0.05},
				{Eps: 0.05, Workers: 4},
				{Eps: 0.05, PlainEval: true},
			} {
				ref, refErr := LazyGreedy(p, opts)
				got, gotErr := LazyGreedy(elemsP, opts)
				if (refErr == nil) != (gotErr == nil) {
					t.Fatalf("%s workers=%d plain=%t: feasibility disagreement: %v vs %v",
						oracle, opts.Workers, opts.PlainEval, refErr, gotErr)
				}
				if refErr != nil {
					continue
				}
				if !slices.Equal(ref.Chosen, got.Chosen) {
					t.Fatalf("%s workers=%d plain=%t: picks diverged:\nitems %v\nelems %v",
						oracle, opts.Workers, opts.PlainEval, ref.Chosen, got.Chosen)
				}
				if ref.Utility != got.Utility || !ref.Union.Equal(got.Union) {
					t.Fatalf("%s workers=%d plain=%t: result diverged", oracle, opts.Workers, opts.PlainEval)
				}
			}
		}
	}
}

// TestValidateRejectsBadElems pins the Elems validation added alongside
// the representation: missing both representations and out-of-universe
// elements are errors.
func TestValidateRejectsBadElems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := oracleProblems(rng)["modular"]

	missing := p
	missing.Subsets = append([]Subset(nil), p.Subsets...)
	missing.Subsets[0] = Subset{Cost: 1}
	if _, err := Greedy(missing, Options{Eps: 0.1}); err == nil {
		t.Fatalf("accepted a subset with neither Items nor Elems")
	}

	oob := p
	oob.Subsets = append([]Subset(nil), p.Subsets...)
	oob.Subsets[0] = Subset{Elems: []int{p.F.Universe()}, Cost: 1}
	if _, err := Greedy(oob, Options{Eps: 0.1}); err == nil {
		t.Fatalf("accepted an out-of-universe element")
	}
}

// TestStepwiseDeltaReplay runs the resumable solver with delta replay
// against its serial self, including warm-started runs — the hint path
// shares the same workspace sync machinery.
func TestStepwiseDeltaReplay(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*911 + 41))
		for oracle, p := range oracleProblems(rng) {
			ref, refErr := LazyGreedy(p, Options{Eps: 0.05})

			sw, err := NewStepwise(p, Options{Eps: 0.05, Workers: 4}, nil)
			if err != nil {
				t.Fatalf("%s: NewStepwise: %v", oracle, err)
			}
			got, gotErr := sw.Solve()
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: feasibility disagreement: %v vs %v", oracle, refErr, gotErr)
			}
			if refErr != nil {
				continue
			}
			if !slices.Equal(ref.Chosen, got.Chosen) {
				t.Fatalf("%s: stepwise delta picks diverged:\nserial %v\ndelta  %v", oracle, ref.Chosen, got.Chosen)
			}

			// Warm start from the cold run's measured zero gains, inflated
			// slightly so they stay upper bounds.
			zg, zs := sw.ZeroGains()
			var hints []Hint
			for i := range zg {
				if zs[i] {
					hints = append(hints, Hint{Subset: i, GainBound: zg[i] * 1.25})
				}
			}
			warm, err := NewStepwise(p, Options{Eps: 0.05, Workers: 4}, hints)
			if err != nil {
				t.Fatalf("%s: warm NewStepwise: %v", oracle, err)
			}
			wres, werr := warm.Solve()
			if werr != nil {
				t.Fatalf("%s: warm solve: %v", oracle, werr)
			}
			if !slices.Equal(ref.Chosen, wres.Chosen) {
				t.Fatalf("%s: warm delta picks diverged:\nserial %v\nwarm   %v", oracle, ref.Chosen, wres.Chosen)
			}
		}
	}
}
