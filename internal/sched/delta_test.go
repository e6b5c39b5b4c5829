package sched

import (
	"math/rand"
	"testing"

	"repro/internal/submodular"
)

// TestMatcherOracleDeltaReplay drives the matcher oracles' delta surface
// directly: a replica synced purely by journal deltas must hold a
// bit-identical matching (value and gains) to the committing oracle, and
// stale or foreign deltas must be rejected.
func TestMatcherOracleDeltaReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		ins := randomOracleInstance(rng)
		m, err := NewModel(ins)
		if err != nil {
			t.Fatalf("NewModel: %v", err)
		}
		cands, err := m.buildCandidates(EventPoints, nil)
		if err != nil {
			t.Fatalf("buildCandidates: %v", err)
		}
		if len(cands) == 0 {
			continue
		}
		oracles := map[string]func() submodular.Incremental{
			"match":    matchFn{m}.NewIncremental,
			"weighted": weightedMatchFn{m}.NewIncremental,
		}
		for name, mk := range oracles {
			primary := mk()
			replica := primary.Replica()
			for round := 0; round < 6 && round < len(cands); round++ {
				items := cands[rng.Intn(len(cands))].items
				d, gain := primary.CommitDelta(items)
				if err := replica.ApplyDelta(d); err != nil {
					t.Fatalf("%s trial %d round %d: ApplyDelta: %v", name, trial, round, err)
				}
				// Re-applying the same delta at the now-current epoch must
				// be a no-op, not a double apply.
				if err := replica.ApplyDelta(d); err != nil {
					t.Fatalf("%s: re-apply at current epoch: %v", name, err)
				}
				if pv, rv := primary.Value(), replica.Value(); pv != rv {
					t.Fatalf("%s trial %d round %d: value diverged: primary %v replica %v (gain %v)",
						name, trial, round, pv, rv, gain)
				}
				if primary.Epoch() != replica.Epoch() {
					t.Fatalf("%s: epochs diverged: %d vs %d", name, primary.Epoch(), replica.Epoch())
				}
				probe := cands[rng.Intn(len(cands))].items
				if pg, rg := primary.Gain(probe), replica.Gain(probe); pg != rg {
					t.Fatalf("%s trial %d round %d: probe gain diverged: %v vs %v", name, trial, round, pg, rg)
				}
			}
			// A replica two epochs behind must refuse the newest delta.
			stale := mk()
			if len(cands) >= 2 {
				primary.CommitDelta(cands[0].items)
				d, _ := primary.CommitDelta(cands[1].items)
				if err := stale.ApplyDelta(d); err == nil {
					t.Fatalf("%s: stale replica accepted a future delta", name)
				}
			}
		}
	}
}

// TestCandidateRepricingAllocs pins the steady-state allocation cost of
// re-pricing candidates on a live model — the hot path of session
// re-solves. After the first solve grows the interval scratch buffer, each
// re-pricing may allocate only the fresh candidate slice (the greedy
// workspace must not be able to observe a recycled one).
func TestCandidateRepricingAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ins := randomOracleInstance(rng)
	m, err := NewModel(ins)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	if _, err := m.buildCandidates(EventPoints, nil); err != nil { // warm the scratch
		t.Fatalf("buildCandidates: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		cands, err := m.buildCandidates(EventPoints, nil)
		if err != nil || len(cands) == 0 {
			t.Fatalf("buildCandidates: %d cands, %v", len(cands), err)
		}
	})
	if allocs > 1 {
		t.Fatalf("candidate re-pricing allocates %.1f objects/run, want <= 1 (the candidate slice)", allocs)
	}
}
