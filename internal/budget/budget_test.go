package budget

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/submodular"
)

// setCoverProblem builds a budgeted set-cover instance: utility is unit
// coverage over m elements, threshold m (cover everything).
func setCoverProblem(m int, sets [][]int, costs []float64) Problem {
	bs := make([]*bitset.Set, len(sets))
	subsets := make([]Subset, len(sets))
	for i, s := range sets {
		bs[i] = bitset.FromSlice(m, s)
		subsets[i] = Subset{Items: bitset.FromSlice(len(sets), []int{i}), Cost: costs[i]}
	}
	f := coverageOverPicks{cov: submodular.NewCoverage(m, bs, nil)}
	return Problem{F: f, Subsets: subsets, Threshold: float64(m)}
}

// coverageOverPicks exposes the coverage function with universe = number of
// sets (items are set indices).
type coverageOverPicks struct{ cov *submodular.Coverage }

func (c coverageOverPicks) Universe() int              { return c.cov.Universe() }
func (c coverageOverPicks) Eval(s *bitset.Set) float64 { return c.cov.Eval(s) }

func TestGreedySolvesEasyCover(t *testing.T) {
	// Two disjoint sets cover everything; a decoy covers half at 10x cost.
	p := setCoverProblem(4,
		[][]int{{0, 1}, {2, 3}, {0, 2}},
		[]float64{1, 1, 10})
	res, err := Greedy(p, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 2 {
		t.Fatalf("cost = %v, want 2 (chosen %v)", res.Cost, res.Chosen)
	}
	if res.Utility < 4 {
		t.Fatalf("utility = %v, want 4", res.Utility)
	}
}

func TestGreedyReachesBicriteriaTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := 30
		var sets [][]int
		var costs []float64
		// Planted: 5 disjoint sets of 6 elements, cost 1 each (B = 5).
		for i := 0; i < 5; i++ {
			var s []int
			for e := 0; e < 6; e++ {
				s = append(s, i*6+e)
			}
			sets = append(sets, s)
			costs = append(costs, 1)
		}
		// Decoys: random sets with random costs.
		for i := 0; i < 25; i++ {
			var s []int
			for e := 0; e < m; e++ {
				if rng.Intn(4) == 0 {
					s = append(s, e)
				}
			}
			sets = append(sets, s)
			costs = append(costs, 0.5+rng.Float64()*3)
		}
		p := setCoverProblem(m, sets, costs)
		eps := 0.05
		res, err := Greedy(p, Options{Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if res.Utility < (1-eps)*float64(m) {
			t.Fatalf("utility %v below (1-eps)x = %v", res.Utility, (1-eps)*float64(m))
		}
		// Lemma 2.1.2: cost <= 2B log2(1/eps) up to the +1 phase.
		bound := 2 * 5 * (math.Log2(1/eps) + 1)
		if res.Cost > bound {
			t.Fatalf("cost %v exceeds Lemma 2.1.2 envelope %v", res.Cost, bound)
		}
	}
}

func TestGreedyInfeasible(t *testing.T) {
	p := setCoverProblem(4, [][]int{{0, 1}}, []float64{1})
	_, err := Greedy(p, Options{Eps: 0.01})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestGreedyBadOptions(t *testing.T) {
	p := setCoverProblem(2, [][]int{{0, 1}}, []float64{1})
	if _, err := Greedy(p, Options{Eps: 0}); err == nil {
		t.Fatal("Eps=0 accepted")
	}
	if _, err := Greedy(p, Options{Eps: 1.5}); err == nil {
		t.Fatal("Eps>1 accepted")
	}
	p.Subsets[0].Cost = -1
	if _, err := Greedy(p, Options{Eps: 0.5}); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestGreedyZeroThreshold(t *testing.T) {
	p := setCoverProblem(3, [][]int{{0}}, []float64{1})
	p.Threshold = 0
	res, err := Greedy(p, Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chosen) != 0 || res.Cost != 0 {
		t.Fatalf("zero threshold should pick nothing: %+v", res)
	}
}

func TestGreedyZeroCostSubsets(t *testing.T) {
	// A free subset with positive gain must be taken before paid ones.
	p := setCoverProblem(4, [][]int{{0, 1, 2, 3}, {0, 1}}, []float64{5, 0})
	res, err := Greedy(p, Options{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen[0] != 1 {
		t.Fatalf("first pick = %d, want the free subset 1", res.Chosen[0])
	}
}

func TestLazyMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		m := 20
		var sets [][]int
		var costs []float64
		for i := 0; i < 15; i++ {
			var s []int
			for e := 0; e < m; e++ {
				if rng.Intn(3) == 0 {
					s = append(s, e)
				}
			}
			sets = append(sets, s)
			costs = append(costs, 0.5+rng.Float64()*2)
		}
		p := setCoverProblem(m, sets, costs)
		p.Threshold = 15 // partial coverage target keeps most instances feasible
		plain, errP := Greedy(p, Options{Eps: 0.1})
		lazy, errL := LazyGreedy(p, Options{Eps: 0.1})
		if (errP == nil) != (errL == nil) {
			t.Fatalf("feasibility disagreement: plain=%v lazy=%v", errP, errL)
		}
		if errP != nil {
			continue
		}
		if len(plain.Chosen) != len(lazy.Chosen) {
			t.Fatalf("pick counts differ: %v vs %v", plain.Chosen, lazy.Chosen)
		}
		for i := range plain.Chosen {
			if plain.Chosen[i] != lazy.Chosen[i] {
				t.Fatalf("pick sequences differ: %v vs %v", plain.Chosen, lazy.Chosen)
			}
		}
		if lazy.Evals > plain.Evals {
			t.Fatalf("lazy used more oracle calls (%d) than plain (%d)", lazy.Evals, plain.Evals)
		}
	}
}

// TestParallelMatchesSerial pins the lazy engine at one worker per CPU to
// the serial eager reference.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		m := 24
		var sets [][]int
		var costs []float64
		for i := 0; i < 30; i++ {
			var s []int
			for e := 0; e < m; e++ {
				if rng.Intn(3) == 0 {
					s = append(s, e)
				}
			}
			sets = append(sets, s)
			costs = append(costs, 0.5+rng.Float64()*2)
		}
		p := setCoverProblem(m, sets, costs)
		p.Threshold = 20
		serial, errS := Greedy(p, Options{Eps: 0.1})
		par, errP := LazyGreedy(p, Options{Eps: 0.1, Workers: runtime.GOMAXPROCS(0)})
		if (errS == nil) != (errP == nil) {
			t.Fatalf("feasibility disagreement")
		}
		if errS != nil {
			continue
		}
		if !slices.Equal(serial.Chosen, par.Chosen) {
			t.Fatalf("parallel pick sequence differs: %v vs %v", serial.Chosen, par.Chosen)
		}
	}
}

func TestPhasesLedger(t *testing.T) {
	p := setCoverProblem(8,
		[][]int{{0, 1, 2, 3}, {4, 5}, {6}, {7}},
		[]float64{1, 1, 1, 1})
	res, err := Greedy(p, Options{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	phases := res.Phases(p.Threshold)
	total := 0.0
	for _, c := range phases {
		total += c
	}
	if math.Abs(total-res.Cost) > 1e-9 {
		t.Fatalf("phase costs sum to %v, want %v", total, res.Cost)
	}
}

// TestLemma211 checks Lemma 2.1.1 on random coverage instances:
// Σ_j [F(S'∪Sj) − F(S')] >= F(T) − F(S') where T = ∪_j Sj.
func TestLemma211(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		m := 15
		nsets := 8
		ground := make([]*bitset.Set, nsets)
		for i := range ground {
			ground[i] = bitset.New(m)
			for e := 0; e < m; e++ {
				if rng.Intn(3) == 0 {
					ground[i].Add(e)
				}
			}
		}
		f := submodular.NewCoverage(m, ground, nil)
		// k random item-subsets over the universe of set indices.
		k := 1 + rng.Intn(4)
		subs := make([]*bitset.Set, k)
		union := bitset.New(nsets)
		for j := range subs {
			subs[j] = bitset.New(nsets)
			for i := 0; i < nsets; i++ {
				if rng.Intn(3) == 0 {
					subs[j].Add(i)
				}
			}
			union.UnionWith(subs[j])
		}
		sPrime := bitset.New(nsets)
		for i := 0; i < nsets; i++ {
			if rng.Intn(4) == 0 {
				sPrime.Add(i)
			}
		}
		fs := f.Eval(sPrime)
		lhs := 0.0
		for j := range subs {
			lhs += f.Eval(bitset.Union(sPrime, subs[j])) - fs
		}
		rhs := f.Eval(union) - fs
		if lhs < rhs-1e-9 {
			t.Fatalf("Lemma 2.1.1 violated: lhs=%v rhs=%v", lhs, rhs)
		}
	}
}

func BenchmarkGreedyCover(b *testing.B) {
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
		if _, err := Greedy(p, Options{Eps: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLazyGreedyCover(b *testing.B) {
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
		if _, err := LazyGreedy(p, Options{Eps: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}
