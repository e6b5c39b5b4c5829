package submodular

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

const diffEps = 1e-9

// incrementalCase couples a plain oracle with a name for the differential
// property tests.
type incrementalCase struct {
	name string
	f    Function // must implement IncrementalProvider
}

func randomCases(rng *rand.Rand) []incrementalCase {
	n := 6 + rng.Intn(10)
	m := 8 + rng.Intn(16)

	sets := make([]*bitset.Set, n)
	for i := range sets {
		sets[i] = bitset.New(m)
		for e := 0; e < m; e++ {
			if rng.Intn(3) == 0 {
				sets[i].Add(e)
			}
		}
	}
	weights := make([]float64, m)
	for i := range weights {
		weights[i] = rng.Float64() * 5
	}

	benefit := make([][]float64, 5+rng.Intn(6))
	for c := range benefit {
		benefit[c] = make([]float64, n)
		for i := range benefit[c] {
			benefit[c][i] = rng.Float64() * 10
		}
	}

	modWeights := make([]float64, n)
	for i := range modWeights {
		modWeights[i] = rng.Float64() * 10
	}

	return []incrementalCase{
		{"coverage-unit", NewCoverage(m, sets, nil)},
		{"coverage-weighted", NewCoverage(m, sets, weights)},
		{"facility-location", NewFacilityLocation(benefit)},
		{"modular", &Modular{Weights: modWeights}},
		{"concave-cardinality", NewSqrtCardinality(n)},
	}
}

// randomItems draws a batch of items, deliberately allowing duplicates and
// members of the current base set — the interface must tolerate both.
func randomItems(rng *rand.Rand, n int) []int {
	items := make([]int, rng.Intn(n+1))
	for i := range items {
		items[i] = rng.Intn(n)
	}
	return items
}

// TestIncrementalMatchesEval runs randomized Commit/Gain sequences on every
// incremental oracle in this package and asserts agreement with the plain
// Eval counterpart to 1e-9 at each step.
func TestIncrementalMatchesEval(t *testing.T) {
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 11))
		for _, tc := range randomCases(rng) {
			inc, ok := AsIncremental(tc.f)
			if !ok {
				t.Fatalf("%s: no incremental oracle", tc.name)
			}
			n := tc.f.Universe()
			base := bitset.New(n)
			for step := 0; step < 10; step++ {
				items := randomItems(rng, n)

				union := base.Clone()
				for _, it := range items {
					union.Add(it)
				}
				wantBase := tc.f.Eval(base)
				wantUnion := tc.f.Eval(union)

				if got := inc.Value(); abs(got-wantBase) > diffEps {
					t.Fatalf("%s trial %d step %d: Value = %g, want Eval = %g", tc.name, trial, step, got, wantBase)
				}
				if got := inc.Gain(items); abs(got-(wantUnion-wantBase)) > diffEps {
					t.Fatalf("%s trial %d step %d: Gain(%v) = %g, want %g",
						tc.name, trial, step, items, got, wantUnion-wantBase)
				}
				// Probes must not move the base set or the value.
				if !inc.Base().Equal(base) {
					t.Fatalf("%s trial %d step %d: Gain mutated the base set", tc.name, trial, step)
				}
				if got := inc.Value(); abs(got-wantBase) > diffEps {
					t.Fatalf("%s trial %d step %d: Gain moved Value to %g, want %g", tc.name, trial, step, got, wantBase)
				}

				if rng.Intn(2) == 0 {
					gain := inc.Commit(items)
					base = union
					if abs(gain-(wantUnion-wantBase)) > diffEps {
						t.Fatalf("%s trial %d step %d: Commit gain = %g, want %g",
							tc.name, trial, step, gain, wantUnion-wantBase)
					}
					if !inc.Base().Equal(base) {
						t.Fatalf("%s trial %d step %d: Commit base mismatch", tc.name, trial, step)
					}
					if got := inc.Value(); abs(got-wantUnion) > diffEps {
						t.Fatalf("%s trial %d step %d: post-Commit Value = %g, want %g",
							tc.name, trial, step, got, wantUnion)
					}
				}
			}
			inc.Reset()
			if !inc.Base().Empty() || abs(inc.Value()-tc.f.Eval(bitset.New(n))) > diffEps {
				t.Fatalf("%s: Reset did not restore the empty base", tc.name)
			}
		}
	}
}

// TestReplicaIndependence checks the deep-copy side of the replica
// contract: a replica of an additive oracle starts with the same base and
// value, then evolves independently — committing to one side never moves
// the other. Probes on any replica leave every oracle of the lineage as
// it was. (Copy-on-write replicas share commits by design; see
// TestCOWReplicaSharesCommittedState.)
func TestReplicaIndependence(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*31337 + 7))
		for _, tc := range randomCases(rng) {
			inc, _ := AsIncremental(tc.f)
			n := tc.f.Universe()
			// Commit a random prefix so replicas copy non-trivial state.
			inc.Commit(randomItems(rng, n))

			replica := inc.Replica()
			if !replica.Base().Equal(inc.Base()) || replica.Epoch() != inc.Epoch() {
				t.Fatalf("%s: replica base or epoch differs", tc.name)
			}
			if replica.Value() != inc.Value() {
				t.Fatalf("%s: replica value %g, want %g", tc.name, replica.Value(), inc.Value())
			}
			baseSnap := inc.Base().Clone()
			valSnap := inc.Value()
			probe := randomItems(rng, n)
			if g1, g2 := inc.Gain(probe), replica.Gain(probe); g1 != g2 {
				t.Fatalf("%s: replicas disagree on a probe: %g vs %g", tc.name, g1, g2)
			}
			if !inc.Base().Equal(baseSnap) || inc.Value() != valSnap {
				t.Fatalf("%s: a replica probe moved the lineage", tc.name)
			}
			if copyOnWrite(inc) {
				continue
			}

			// Diverge: commit to the original only.
			before := replica.Base().Clone()
			beforeVal := replica.Value()
			inc.Commit(randomItems(rng, n))
			if !replica.Base().Equal(before) || replica.Value() != beforeVal {
				t.Fatalf("%s: committing to the original moved the replica", tc.name)
			}
			// And the other way around.
			baseSnap = inc.Base().Clone()
			valSnap = inc.Value()
			replica.Commit(randomItems(rng, n))
			if !inc.Base().Equal(baseSnap) || inc.Value() != valSnap {
				t.Fatalf("%s: committing to the replica moved the original", tc.name)
			}
			// Both must still agree with plain Eval on their own bases.
			if got, want := replica.Value(), tc.f.Eval(replica.Base()); abs(got-want) > diffEps {
				t.Fatalf("%s: diverged replica Value = %g, want Eval = %g", tc.name, got, want)
			}
		}
	}
}

// TestCloneSharesCallCounter checks that replicas of a counting oracle,
// and replicas of replicas, bill the one shared counter — parallel scans
// report total probes.
func TestCloneSharesCallCounter(t *testing.T) {
	cov := NewCoverage(4, []*bitset.Set{
		bitset.FromSlice(4, []int{0, 1}),
		bitset.FromSlice(4, []int{2}),
	}, nil)
	c := NewCounting(cov)
	inc, _ := AsIncremental(c)
	replica := inc.Replica()
	inc.Gain([]int{0})
	replica.Gain([]int{1})
	replica.Replica().Gain([]int{0})
	if got := c.Calls(); got != 3 {
		t.Fatalf("Calls = %d, want 3 (replica probes share the counter)", got)
	}
}

// TestAsIncrementalCounting checks that a Counting wrapper yields a
// counting incremental oracle: Gain and Eval are billed, Commit is not.
func TestAsIncrementalCounting(t *testing.T) {
	cov := NewCoverage(4, []*bitset.Set{
		bitset.FromSlice(4, []int{0, 1}),
		bitset.FromSlice(4, []int{2}),
	}, nil)
	c := NewCounting(cov)
	inc, ok := AsIncremental(c)
	if !ok {
		t.Fatal("Counting over a provider should be incremental")
	}
	inc.Gain([]int{0})
	inc.Gain([]int{1})
	inc.Commit([]int{0})
	inc.Eval(bitset.New(2))
	if got := c.Calls(); got != 3 {
		t.Fatalf("Calls = %d, want 3 (two gains + one eval, commits free)", got)
	}
}

// TestAsIncrementalFallback checks that functions without a provider are
// rejected.
func TestAsIncrementalFallback(t *testing.T) {
	cut := NewCut(4)
	cut.AddEdge(0, 1, 1)
	if _, ok := AsIncremental(cut); ok {
		t.Fatal("Cut should not offer an incremental oracle")
	}
	if _, ok := AsIncremental(NewCounting(cut)); ok {
		t.Fatal("Counting over Cut should not offer an incremental oracle")
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
