package submodular

import (
	"math/rand"
	"testing"
)

// oracleOf builds a fresh incremental oracle (its own lineage) for tc.
func oracleOf(t *testing.T, tc incrementalCase) Incremental {
	t.Helper()
	inc, ok := AsIncremental(tc.f)
	if !ok {
		t.Fatalf("%s: no incremental oracle", tc.name)
	}
	return inc
}

// copyOnWrite reports whether inc's replicas share its committed state.
func copyOnWrite(inc Incremental) bool {
	switch inc.(type) {
	case *IncCoverage, *IncFacilityLocation:
		return true
	}
	return false
}

// TestDeltaReplayMatchesCommit is the determinism backbone of per-round
// delta replay: a replica that applies the primary's deltas must be
// bit-identical (exact float equality, not epsilon) to the primary after
// every batch.
func TestDeltaReplayMatchesCommit(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*31337 + 7))
		for _, tc := range randomCases(rng) {
			primary := oracleOf(t, tc)
			replica := primary.Replica()
			n := tc.f.Universe()
			for step := 0; step < 8; step++ {
				items := randomItems(rng, n)
				wantGain := replica.Gain(items)
				d, gain := primary.CommitDelta(items)
				if d.DeltaEpoch() != primary.Epoch() {
					t.Fatalf("%s trial %d step %d: delta epoch %d, primary epoch %d",
						tc.name, trial, step, d.DeltaEpoch(), primary.Epoch())
				}
				if gain != wantGain {
					t.Fatalf("%s trial %d step %d: CommitDelta gain %g != replica probe %g",
						tc.name, trial, step, gain, wantGain)
				}
				if err := replica.ApplyDelta(d); err != nil {
					t.Fatalf("%s trial %d step %d: ApplyDelta: %v", tc.name, trial, step, err)
				}
				if replica.Epoch() != primary.Epoch() {
					t.Fatalf("%s trial %d step %d: epochs diverged %d vs %d",
						tc.name, trial, step, replica.Epoch(), primary.Epoch())
				}
				if !replica.Base().Equal(primary.Base()) {
					t.Fatalf("%s trial %d step %d: bases diverged after delta replay", tc.name, trial, step)
				}
				if replica.Value() != primary.Value() {
					t.Fatalf("%s trial %d step %d: values diverged %v vs %v (must be bit-identical)",
						tc.name, trial, step, replica.Value(), primary.Value())
				}
				probe := randomItems(rng, n)
				if g1, g2 := primary.Gain(probe), replica.Gain(probe); g1 != g2 {
					t.Fatalf("%s trial %d step %d: probe diverged %v vs %v", tc.name, trial, step, g1, g2)
				}
			}
		}
	}
}

// TestDeltaEquivalentToCommit checks that CommitDelta commits exactly
// like Commit: a second lineage that uses plain Commit on the same
// batches tracks the CommitDelta primary bit-for-bit.
func TestDeltaEquivalentToCommit(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 3))
		for _, tc := range randomCases(rng) {
			primary := oracleOf(t, tc)
			committer := oracleOf(t, tc)
			n := tc.f.Universe()
			for step := 0; step < 8; step++ {
				items := randomItems(rng, n)
				_, dg := primary.CommitDelta(items)
				cg := committer.Commit(items)
				if dg != cg {
					t.Fatalf("%s trial %d step %d: CommitDelta gain %v != Commit gain %v",
						tc.name, trial, step, dg, cg)
				}
				if primary.Value() != committer.Value() || !primary.Base().Equal(committer.Base()) ||
					primary.Epoch() != committer.Epoch() {
					t.Fatalf("%s trial %d step %d: CommitDelta state diverged from Commit", tc.name, trial, step)
				}
			}
		}
	}
}

// TestCOWReplicaSharesCommittedState checks the copy-on-write contract:
// a Replica() view of coverage or facility location observes the
// primary's commits through the shared state, and ApplyDelta on it is an
// epoch check instead of a double apply.
func TestCOWReplicaSharesCommittedState(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range randomCases(rng) {
		primary := oracleOf(t, tc)
		if !copyOnWrite(primary) {
			continue // the additive oracles' replicas are deep copies
		}
		replica := primary.Replica()
		n := tc.f.Universe()
		for step := 0; step < 6; step++ {
			items := randomItems(rng, n)
			d, _ := primary.CommitDelta(items)
			// The shared state already advanced: the replica sees it
			// before any ApplyDelta.
			if replica.Epoch() != primary.Epoch() || replica.Value() != primary.Value() {
				t.Fatalf("%s step %d: COW replica did not observe the primary's commit", tc.name, step)
			}
			if err := replica.ApplyDelta(d); err != nil {
				t.Fatalf("%s step %d: ApplyDelta on COW replica: %v", tc.name, step, err)
			}
			if replica.Value() != primary.Value() || !replica.Base().Equal(primary.Base()) {
				t.Fatalf("%s step %d: ApplyDelta double-applied on shared state", tc.name, step)
			}
			probe := randomItems(rng, n)
			if g1, g2 := primary.Gain(probe), replica.Gain(probe); g1 != g2 {
				t.Fatalf("%s step %d: COW probe diverged %v vs %v", tc.name, step, g1, g2)
			}
		}
	}
}

// TestNewProbeReplica checks replica selection, which the removed
// NewProbeReplica helper used to make and Replica now makes directly:
// copy-on-write views for coverage and facility location (shared
// committed state, private probe scratch), deep copies otherwise, and
// counting wrappers that keep billing the shared counter.
func TestNewProbeReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, tc := range randomCases(rng) {
		inc := oracleOf(t, tc)
		replica := inc.Replica()
		if !replica.Base().Equal(inc.Base()) || replica.Value() != inc.Value() {
			t.Fatalf("%s: probe replica does not match primary", tc.name)
		}
		switch p := inc.(type) {
		case *IncCoverage:
			if p.st != replica.(*IncCoverage).st {
				t.Fatalf("%s: expected copy-on-write shared state", tc.name)
			}
			if p.scratch == replica.(*IncCoverage).scratch {
				t.Fatalf("%s: probe scratch must be replica-private", tc.name)
			}
		case *IncFacilityLocation:
			if p.st != replica.(*IncFacilityLocation).st {
				t.Fatalf("%s: expected copy-on-write shared state", tc.name)
			}
		default:
			// Deep copy: commits to the replica must not move the primary.
			before := inc.Value()
			replica.Commit(randomItems(rng, tc.f.Universe()))
			if inc.Value() != before {
				t.Fatalf("%s: deep-copy replica shares state with primary", tc.name)
			}
		}
	}

	// Counting wrappers keep their wrapper and charge the shared counter.
	counting := NewCounting(randomCases(rng)[0].f)
	inc, _ := AsIncremental(counting)
	replica := inc.Replica()
	if _, ok := replica.(*countingIncremental); !ok {
		t.Fatalf("probe replica of counting oracle lost its counting wrapper")
	}
	before := counting.Calls()
	replica.Gain([]int{0})
	if counting.Calls() != before+1 {
		t.Fatalf("probe replica does not bill the shared counter")
	}
}

// TestApplyDeltaEpochErrors checks that the epoch protocol rejects
// skipped, stale and foreign deltas, leaving the receiving oracle as it
// was, instead of silently corrupting a replica.
func TestApplyDeltaEpochErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range randomCases(rng) {
		primary := oracleOf(t, tc)
		other := oracleOf(t, tc) // a second lineage over the same function
		n := tc.f.Universe()

		// Two commits on the primary: its second delta skips an epoch the
		// other lineage never saw (and is foreign to it besides).
		primary.CommitDelta(randomItems(rng, n))
		d2, _ := primary.CommitDelta(randomItems(rng, n))
		if err := other.ApplyDelta(d2); err == nil {
			t.Fatalf("%s: skipped-epoch delta applied without error", tc.name)
		}
		if other.Epoch() != 0 || other.Value() != 0 {
			t.Fatalf("%s: failed ApplyDelta moved the oracle", tc.name)
		}

		// A delta behind the replica's epoch is stale.
		replica := primary.Replica()
		stale, _ := other.CommitDelta(randomItems(rng, n))
		before := replica.Value()
		if err := replica.ApplyDelta(stale); err == nil {
			t.Fatalf("%s: stale delta (epoch %d at epoch %d) applied without error",
				tc.name, stale.DeltaEpoch(), replica.Epoch())
		}
		if replica.Epoch() != primary.Epoch() || replica.Value() != before {
			t.Fatalf("%s: failed ApplyDelta moved the replica", tc.name)
		}

		// A delta from a different oracle type must be rejected.
		var foreign Delta = fakeDelta{epoch: replica.Epoch() + 1}
		if err := replica.ApplyDelta(foreign); err == nil {
			t.Fatalf("%s: foreign delta type applied without error", tc.name)
		}
	}
}

type fakeDelta struct{ epoch uint64 }

func (d fakeDelta) DeltaEpoch() uint64 { return d.epoch }

// TestDeltaPathAllocFree pins the per-round hot path: once the reusable
// delta buffer exists, CommitDelta on the primary and ApplyDelta on a
// replica allocate nothing.
func TestDeltaPathAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range randomCases(rng) {
		primary := oracleOf(t, tc)
		replica := primary.Replica()
		n := tc.f.Universe()

		// Warm the delta buffer with a first, larger batch.
		items := randomItems(rng, n)
		for len(items) < 3 {
			items = append(items, rng.Intn(n))
		}
		d, _ := primary.CommitDelta(items)
		if err := replica.ApplyDelta(d); err != nil {
			t.Fatalf("%s: warmup ApplyDelta: %v", tc.name, err)
		}

		batch := []int{rng.Intn(n)}
		var dd Delta
		if allocs := testing.AllocsPerRun(20, func() {
			dd, _ = primary.CommitDelta(batch)
			if err := replica.ApplyDelta(dd); err != nil {
				t.Fatalf("%s: ApplyDelta: %v", tc.name, err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: delta round allocates %v times, want 0", tc.name, allocs)
		}
	}
}

// TestDeltaDoesNotAliasProbeScratch reconstructs the shared-mutable-delta
// aliasing bug the deltashare analyzer guards against: after CommitDelta,
// probes on the primary overwrite its scratch — a delta aliasing that
// scratch would corrupt replicas applying it afterwards.
func TestDeltaDoesNotAliasProbeScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range randomCases(rng) {
		primary := oracleOf(t, tc)
		replica := primary.Replica()
		n := tc.f.Universe()

		items := randomItems(rng, n)
		d, _ := primary.CommitDelta(items)
		// Probe storm on the primary between CommitDelta and the replica's
		// ApplyDelta — exactly the interleaving of the parallel greedy,
		// where worker 0 probes while workers 1..W-1 apply the delta.
		for i := 0; i < 8; i++ {
			primary.Gain(randomItems(rng, n))
		}
		if err := replica.ApplyDelta(d); err != nil {
			t.Fatalf("%s: ApplyDelta: %v", tc.name, err)
		}
		if replica.Value() != primary.Value() || !replica.Base().Equal(primary.Base()) {
			t.Fatalf("%s: delta corrupted by subsequent probes (aliases probe scratch?)", tc.name)
		}
	}
}

// TestResetZeroesEpoch checks Reset returns the lineage to epoch zero so
// a fresh run's deltas line up again.
func TestResetZeroesEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range randomCases(rng) {
		primary := oracleOf(t, tc)
		primary.CommitDelta(randomItems(rng, tc.f.Universe()))
		if primary.Epoch() == 0 {
			t.Fatalf("%s: CommitDelta did not advance the epoch", tc.name)
		}
		primary.Reset()
		if primary.Epoch() != 0 {
			t.Fatalf("%s: Reset left epoch at %d", tc.name, primary.Epoch())
		}
		if !primary.Base().Empty() {
			t.Fatalf("%s: Reset left a non-empty base", tc.name)
		}
	}
}

// TestReplicaDoesNotShareDeltaBuffer checks that deep-copy replicas leave
// the reusable delta buffer behind: a replica's CommitDelta must not
// invalidate a delta the original handed out. (Copy-on-write replicas
// commit to the shared lineage by design, so they are not checked.)
func TestReplicaDoesNotShareDeltaBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, tc := range randomCases(rng) {
		primary := oracleOf(t, tc)
		if copyOnWrite(primary) {
			continue
		}
		sibling := primary.Replica()
		replica := primary.Replica()
		n := tc.f.Universe()

		items := randomItems(rng, n)
		d, _ := primary.CommitDelta(items)
		// The sibling commits something else; with a shared buffer this
		// would clobber d before the replica applies it.
		sibling.CommitDelta(randomItems(rng, n))
		if err := replica.ApplyDelta(d); err != nil {
			t.Fatalf("%s: ApplyDelta: %v", tc.name, err)
		}
		if replica.Value() != primary.Value() || !replica.Base().Equal(primary.Base()) {
			t.Fatalf("%s: replica shares the delta buffer with its original", tc.name)
		}
	}
}
