package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// sameSchedule asserts two schedules are identical pick for pick — not
// just equal cost: the parallel greedy must reproduce the serial pick
// sequence exactly, so intervals arrive in the same order and the final
// matching assigns every job the same slot.
func sameSchedule(t *testing.T, label string, ref, got *Schedule) {
	t.Helper()
	if !slices.Equal(ref.Intervals, got.Intervals) {
		t.Fatalf("%s: interval sequences diverge:\nserial  %v\nworkers %v", label, ref.Intervals, got.Intervals)
	}
	if !slices.Equal(ref.Assignment, got.Assignment) {
		t.Fatalf("%s: assignments diverge:\nserial  %v\nworkers %v", label, ref.Assignment, got.Assignment)
	}
	if ref.Cost != got.Cost || ref.Value != got.Value || ref.Scheduled != got.Scheduled {
		t.Fatalf("%s: totals diverge: (%g,%g,%d) vs (%g,%g,%d)",
			label, ref.Cost, ref.Value, ref.Scheduled, got.Cost, got.Value, got.Scheduled)
	}
}

// TestSchedulingWorkerCountDeterminism runs every algorithm over the
// matcher oracles (Lemmas 2.2.2 and 2.3.2) through the lazy engine at
// 1/2/4/8 workers, incremental and from-scratch oracles, and asserts the
// schedules are identical to the eager serial reference's on the same
// oracle. The CI race job runs this package with -race, which exercises
// the sharded matcher replicas for data races.
func TestSchedulingWorkerCountDeterminism(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*6151 + 29))
		ins := randomOracleInstance(rng)
		total := 0.0
		for _, j := range ins.Jobs {
			total += j.Value
		}
		z := 0.6 * total

		for _, plain := range []bool{false, true} {
			base := Options{PlainOracle: plain}
			refScheds, refErrs := map[string]*Schedule{}, map[string]error{}
			refScheds["all"], refErrs["all"] = ScheduleAllReference(ins, base)
			refScheds["prize"], refErrs["prize"] = PrizeCollectingReference(ins, z, withEps(base, 0.1))
			refScheds["prize-exact"], refErrs["prize-exact"] = PrizeCollectingExactReference(ins, z, base)
			for _, workers := range []int{1, 2, 4, 8} {
				opts := base
				opts.Workers = workers
				gotScheds, gotErrs := map[string]*Schedule{}, map[string]error{}
				gotScheds["all"], gotErrs["all"] = ScheduleAll(ins, opts)
				gotScheds["prize"], gotErrs["prize"] = PrizeCollecting(ins, z, withEps(opts, 0.1))
				gotScheds["prize-exact"], gotErrs["prize-exact"] = PrizeCollectingExact(ins, z, opts)
				for algo := range refScheds {
					if (refErrs[algo] == nil) != (gotErrs[algo] == nil) {
						t.Fatalf("trial %d %s plain=%t workers=%d: feasibility disagreement: %v vs %v",
							trial, algo, plain, workers, refErrs[algo], gotErrs[algo])
					}
					if refErrs[algo] != nil {
						continue
					}
					sameSchedule(t, algo, refScheds[algo], gotScheds[algo])
				}
			}
		}
	}
}

func withEps(opts Options, eps float64) Options {
	opts.Eps = eps
	return opts
}
