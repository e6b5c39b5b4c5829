package submodular_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/submodular"
	"repro/internal/workload"
)

// replicaOracles returns one Function per incremental oracle in the
// repository: the four in this package and sched's two matchers.
func replicaOracles(t *testing.T, rng *rand.Rand) map[string]submodular.Function {
	t.Helper()
	const n, m = 14, 24
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
	benefit := make([][]float64, 8)
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
	ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: 2, Horizon: 24, IntervalsPerProc: 2, JobsPerInterval: 3,
		ExtraSlotsPerJob: 2, ValueSpread: 3,
		Cost: power.Affine{Alpha: 2, Rate: 1},
	})
	model, err := sched.NewModel(ins)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return map[string]submodular.Function{
		"coverage":          submodular.NewCoverage(m, sets, weights),
		"facility-location": submodular.NewFacilityLocation(benefit),
		"modular":           &submodular.Modular{Weights: modWeights},
		"concave":           submodular.NewSqrtCardinality(n),
		"matching":          model.MatchingUtility(),
		"weighted-matching": model.WeightedUtility(),
	}
}

type foreignDelta struct{}

func (foreignDelta) DeltaEpoch() uint64 { return 1 }

// TestReplicaContract checks Incremental.Replica on every oracle, bare
// and behind the counting wrapper: a replica bills the shared Counting;
// after k rounds of CommitDelta on the primary and ApplyDelta on the
// replica, Gain on every item is bit-identical between the two; and a
// stale or foreign delta is refused.
func TestReplicaContract(t *testing.T) {
	const rounds = 6
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7001 + 11))
		for name, f := range replicaOracles(t, rng) {
			for _, counted := range []bool{false, true} {
				label := fmt.Sprintf("%s counted=%t trial %d", name, counted, trial)
				var counter *submodular.Counting
				src := f
				if counted {
					counter = submodular.NewCounting(f)
					src = counter
				}
				primary, ok := submodular.AsIncremental(src)
				if !ok {
					t.Fatalf("%s: no incremental oracle", label)
				}
				replica := primary.Replica()
				n := f.Universe()
				probe := []int{0}
				if counted {
					before := counter.Calls()
					replica.Gain(probe)
					replica.Replica().Gain(probe)
					if got := counter.Calls() - before; got != 2 {
						t.Fatalf("%s: replica probes billed %d calls, want 2", label, got)
					}
				}

				for round := 0; round < rounds; round++ {
					items := make([]int, 1+rng.Intn(3))
					for i := range items {
						items[i] = rng.Intn(n)
					}
					d, _ := primary.CommitDelta(items)
					if err := replica.ApplyDelta(d); err != nil {
						t.Fatalf("%s round %d: ApplyDelta: %v", label, round, err)
					}
					if replica.Epoch() != primary.Epoch() || replica.Value() != primary.Value() {
						t.Fatalf("%s round %d: replica at epoch %d value %v, primary at %d value %v",
							label, round, replica.Epoch(), replica.Value(), primary.Epoch(), primary.Value())
					}
					for it := 0; it < n; it++ {
						probe[0] = it
						pg, rg := primary.Gain(probe), replica.Gain(probe)
						if math.Float64bits(pg) != math.Float64bits(rg) {
							t.Fatalf("%s round %d item %d: primary gain %v, replica gain %v", label, round, it, pg, rg)
						}
					}
				}

				// A delta from another lineage at epoch 1 is stale for a
				// replica at epoch `rounds`, and foreign besides.
				other, _ := submodular.AsIncremental(f)
				stale, _ := other.CommitDelta([]int{0})
				if err := replica.ApplyDelta(stale); err == nil {
					t.Fatalf("%s: stale delta applied without error", label)
				}
				if err := replica.ApplyDelta(foreignDelta{}); err == nil {
					t.Fatalf("%s: foreign delta applied without error", label)
				}
				if replica.Epoch() != primary.Epoch() || replica.Value() != primary.Value() {
					t.Fatalf("%s: refused deltas moved the replica", label)
				}
			}
		}
	}
}
