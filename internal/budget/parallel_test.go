package budget

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/submodular"
)

// oracleProblem builds a random budgeted problem over one of the
// incremental oracles: multi-item subsets with random costs and a partial
// threshold, so runs take several rounds and leave stale heap entries.
func oracleProblems(rng *rand.Rand) map[string]Problem {
	nItems := 24 + rng.Intn(16)
	ground := 40 + rng.Intn(20)

	sets := make([]*bitset.Set, nItems)
	for i := range sets {
		sets[i] = bitset.New(ground)
		for e := 0; e < ground; e++ {
			if rng.Intn(4) == 0 {
				sets[i].Add(e)
			}
		}
	}
	weights := make([]float64, ground)
	for i := range weights {
		weights[i] = 0.5 + rng.Float64()*4
	}
	benefit := make([][]float64, 12)
	for c := range benefit {
		benefit[c] = make([]float64, nItems)
		for i := range benefit[c] {
			benefit[c][i] = rng.Float64() * 10
		}
	}
	modWeights := make([]float64, nItems)
	for i := range modWeights {
		modWeights[i] = rng.Float64() * 10
	}

	subsets := make([]Subset, 30+rng.Intn(20))
	for i := range subsets {
		items := bitset.New(nItems)
		for it := 0; it < nItems; it++ {
			if rng.Intn(5) == 0 {
				items.Add(it)
			}
		}
		if items.Empty() {
			items.Add(rng.Intn(nItems))
		}
		subsets[i] = Subset{Items: items, Cost: 0.5 + rng.Float64()*3}
	}

	problems := map[string]Problem{}
	for name, f := range map[string]submodular.Function{
		"coverage-unit":       submodular.NewCoverage(ground, sets, nil),
		"coverage-weighted":   submodular.NewCoverage(ground, sets, weights),
		"facility-location":   submodular.NewFacilityLocation(benefit),
		"modular":             &submodular.Modular{Weights: modWeights},
		"concave-cardinality": submodular.NewSqrtCardinality(nItems),
	} {
		full := f.Eval(bitset.Full(nItems))
		problems[name] = Problem{F: f, Subsets: subsets, Threshold: 0.85 * full}
	}
	return problems
}

// TestWorkerCountDeterminism is the lazy engine's parallelism contract:
// for every incremental oracle, plain-Eval and incremental, the pick
// sequence at 1/2/4/8 workers is identical to the serial eager reference's.
// Under -race (the CI race job runs this package) it also exercises the
// sharded initial sweep and the batched lazy revalidation for data races.
func TestWorkerCountDeterminism(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 3))
		for oracle, p := range oracleProblems(rng) {
			for _, plain := range []bool{false, true} {
				ref, refErr := Greedy(p, Options{Eps: 0.05, PlainEval: plain})
				for _, workers := range []int{1, 2, 4, 8} {
					got, gotErr := LazyGreedy(p, Options{Eps: 0.05, PlainEval: plain, Workers: workers})
					if (refErr == nil) != (gotErr == nil) {
						t.Fatalf("%s plain=%t workers=%d: feasibility disagreement: %v vs %v",
							oracle, plain, workers, refErr, gotErr)
					}
					if refErr != nil {
						continue
					}
					if !slices.Equal(ref.Chosen, got.Chosen) {
						t.Fatalf("%s plain=%t workers=%d: picks diverged:\nserial %v\nworkers %v",
							oracle, plain, workers, ref.Chosen, got.Chosen)
					}
					if ref.Cost != got.Cost || ref.Utility != got.Utility {
						t.Fatalf("%s plain=%t workers=%d: cost/utility diverged: (%v,%v) vs (%v,%v)",
							oracle, plain, workers, ref.Cost, ref.Utility, got.Cost, got.Utility)
					}
				}
			}
		}
	}
}

// TestWorkersGreedyMatchesLazy pins LazyGreedy at every worker count to
// the serial Greedy reference — the Lemma 2.1.2 identical-picks guarantee
// must survive the batched revalidation.
func TestWorkersGreedyMatchesLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		for oracle, p := range oracleProblems(rng) {
			for _, workers := range []int{1, 4} {
				g, errG := Greedy(p, Options{Eps: 0.1})
				l, errL := LazyGreedy(p, Options{Eps: 0.1, Workers: workers})
				if (errG == nil) != (errL == nil) {
					t.Fatalf("%s workers=%d: feasibility disagreement: %v vs %v", oracle, workers, errG, errL)
				}
				if errG != nil {
					continue
				}
				if !slices.Equal(g.Chosen, l.Chosen) {
					t.Fatalf("%s workers=%d: greedy %v != lazy %v", oracle, workers, g.Chosen, l.Chosen)
				}
			}
		}
	}
}

// TestSerialLazyEvalsUnchanged guards the lazy path's probe accounting:
// with one worker the batched revalidation degenerates to the classical
// pop-one/re-probe loop, so serial Evals must not exceed plain Greedy's.
func TestSerialLazyEvalsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for oracle, p := range oracleProblems(rng) {
		plain, errP := Greedy(p, Options{Eps: 0.1})
		lazy, errL := LazyGreedy(p, Options{Eps: 0.1})
		if errP != nil || errL != nil {
			continue
		}
		if lazy.Evals > plain.Evals {
			t.Fatalf("%s: serial lazy used more oracle calls (%d) than plain greedy (%d)",
				oracle, lazy.Evals, plain.Evals)
		}
	}
}

// TestLazyHeapPushDoesNotAllocate asserts the satellite win over
// container/heap: pushing into a pre-grown lazyHeap performs zero
// allocations (the old interface{}-boxed Push allocated one box per call).
func TestLazyHeapPushDoesNotAllocate(t *testing.T) {
	h := make(lazyHeap, 0, 256)
	allocs := testing.AllocsPerRun(50, func() {
		h = h[:0]
		for i := 0; i < 200; i++ {
			h.push(lazyEntry{idx: i, ratio: float64((i * 37) % 11)})
		}
		for len(h) > 0 {
			h.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("lazyHeap push/pop allocated %v times per run, want 0", allocs)
	}
}

// TestWorkersAliasPrimaryOnOneCPU pins the single-CPU aliasing: at
// GOMAXPROCS 1 every worker slot aliases the primary oracle and no
// replica is built, so a run allocates the same at any Workers > 1 — a
// per-worker Replica would grow with the count — and picks what the
// serial run picks.
func TestWorkersAliasPrimaryOnOneCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(3))
	for oracle, p := range oracleProblems(rng) {
		ref, err := LazyGreedy(p, Options{Eps: 0.05})
		if err != nil {
			t.Fatalf("%s: %v", oracle, err)
		}
		allocs := map[int]float64{}
		for _, workers := range []int{2, 8} {
			opts := Options{Eps: 0.05, Workers: workers}
			got, err := LazyGreedy(p, opts)
			if err != nil || !slices.Equal(got.Chosen, ref.Chosen) {
				t.Fatalf("%s workers=%d: picks %v (%v), serial %v", oracle, workers, got.Chosen, err, ref.Chosen)
			}
			allocs[workers] = testing.AllocsPerRun(5, func() { LazyGreedy(p, opts) })
		}
		if allocs[2] != allocs[8] {
			t.Fatalf("%s: one CPU, %v allocs at 2 workers vs %v at 8: worker slots must alias the primary",
				oracle, allocs[2], allocs[8])
		}
	}
}

// TestLazyHeapOrdersLikeSort cross-checks the manual heap's pop order
// against the documented total order (ratio desc, idx asc).
func TestLazyHeapOrdersLikeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		entries := make([]lazyEntry, n)
		for i := range entries {
			entries[i] = lazyEntry{idx: i, ratio: float64(rng.Intn(8))}
		}
		rng.Shuffle(n, func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })

		h := make(lazyHeap, 0, n)
		for _, e := range entries {
			h.push(e)
		}
		want := append([]lazyEntry(nil), entries...)
		slices.SortFunc(want, func(a, b lazyEntry) int {
			if a.ratio != b.ratio {
				if a.ratio > b.ratio {
					return -1
				}
				return 1
			}
			return a.idx - b.idx
		})
		for i, w := range want {
			got := h.pop()
			if got.idx != w.idx {
				t.Fatalf("trial %d pop %d: got idx %d, want %d", trial, i, got.idx, w.idx)
			}
		}
	}
}

// BenchmarkLazyGreedyCoverWorkers4 is BenchmarkLazyGreedyCover with four
// probe workers — batched revalidation over the same instance.
func BenchmarkLazyGreedyCoverWorkers4(b *testing.B) {
	benchLazyGreedyCover(b, 4)
}

func benchLazyGreedyCover(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(1))
	m := 100
	var sets [][]int
	var costs []float64
	for i := 0; i < 80; i++ {
		var s []int
		for e := 0; e < m; e++ {
			if rng.Intn(5) == 0 {
				s = append(s, e)
			}
		}
		sets = append(sets, s)
		costs = append(costs, 0.5+rng.Float64()*2)
	}
	p := setCoverProblem(m, sets, costs)
	p.Threshold = 90
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LazyGreedy(p, Options{Eps: 0.05, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}
