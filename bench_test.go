// Top-level benchmark harness: one benchmark per experiment in DESIGN.md's
// index (E1–E17, A1–A4). Each iteration regenerates the experiment's table
// at quick scale, so `go test -bench=.` re-derives every reproduced result.
// Per-module micro-benchmarks live next to their packages.
package powersched_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/online"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	benchExperimentCfg(b, id, experiments.Config{Seed: 42, Quick: true})
}

// benchExperimentW times an experiment with the greedy's probe
// parallelism set: the same tables (worker counts never change picks),
// only the candidate scans and lazy revalidation run W-wide on sharded
// incremental-oracle replicas. Compare against the serial benchmark of
// the same experiment for the parallel-scaling table in the README.
func benchExperimentW(b *testing.B, id string, workers int) {
	b.Helper()
	benchExperimentCfg(b, id, experiments.Config{Seed: 42, Quick: true, Workers: workers})
}

func benchExperimentCfg(b *testing.B, id string, cfg experiments.Config) {
	b.Helper()
	var run func(experiments.Config) interface {
		WriteTo(io.Writer) (int64, error)
	}
	for _, e := range experiments.All() {
		if e.ID == id {
			e := e
			run = func(c experiments.Config) interface {
				WriteTo(io.Writer) (int64, error)
			} {
				return e.Run(c)
			}
			break
		}
	}
	if run == nil {
		b.Fatalf("no experiment %s", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := run(cfg)
		if _, err := tbl.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1BudgetedGreedy(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2ScheduleAll(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3PrizeCollecting(b *testing.B)     { benchExperiment(b, "E3") }
func BenchmarkE4ExactThreshold(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5Classical(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6MonotoneSecretary(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7NonMonotone(b *testing.B)         { benchExperiment(b, "E7") }
func BenchmarkE8MatroidSecretary(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9KnapsackSecretary(b *testing.B)   { benchExperiment(b, "E9") }
func BenchmarkE10Subadditive(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11Bottleneck(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12HardnessReduction(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13GapDP(b *testing.B)              { benchExperiment(b, "E13") }
func BenchmarkE14OnlinePowerDown(b *testing.B)    { benchExperiment(b, "E14") }
func BenchmarkE15GammaOblivious(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16RollingHorizon(b *testing.B)     { benchExperiment(b, "E16") }
func BenchmarkE17ScenarioMatrix(b *testing.B)     { benchExperiment(b, "E17") }
func BenchmarkA1LazyGreedy(b *testing.B)          { benchExperiment(b, "A1") }
func BenchmarkA2CandidatePolicy(b *testing.B)     { benchExperiment(b, "A2") }
func BenchmarkA3IncrementalMatching(b *testing.B) { benchExperiment(b, "A3") }
func BenchmarkA4EpsilonSweep(b *testing.B)        { benchExperiment(b, "A4") }

// Worker sweeps for the greedy-bound experiments (the parallel-scaling
// table): serial is the plain benchmark above; W2/W4/W8 shard candidate
// probes across that many incremental-oracle replicas, synced per round
// by delta replay. The CI multicore perf job runs this sweep on a
// multi-core runner (the dev container is single-CPU, where the sweep
// only measures coordination overhead).
func BenchmarkE2ScheduleAllW2(b *testing.B)         { benchExperimentW(b, "E2", 2) }
func BenchmarkE2ScheduleAllW4(b *testing.B)         { benchExperimentW(b, "E2", 4) }
func BenchmarkE2ScheduleAllW8(b *testing.B)         { benchExperimentW(b, "E2", 8) }
func BenchmarkE3PrizeCollectingW2(b *testing.B)     { benchExperimentW(b, "E3", 2) }
func BenchmarkE3PrizeCollectingW4(b *testing.B)     { benchExperimentW(b, "E3", 4) }
func BenchmarkE3PrizeCollectingW8(b *testing.B)     { benchExperimentW(b, "E3", 8) }
func BenchmarkE4ExactThresholdW2(b *testing.B)      { benchExperimentW(b, "E4", 2) }
func BenchmarkE4ExactThresholdW4(b *testing.B)      { benchExperimentW(b, "E4", 4) }
func BenchmarkE4ExactThresholdW8(b *testing.B)      { benchExperimentW(b, "E4", 8) }
func BenchmarkA3IncrementalMatchingW2(b *testing.B) { benchExperimentW(b, "A3", 2) }
func BenchmarkA3IncrementalMatchingW4(b *testing.B) { benchExperimentW(b, "A3", 4) }
func BenchmarkA3IncrementalMatchingW8(b *testing.B) { benchExperimentW(b, "A3", 8) }

// benchScheduleAllLazy isolates per-instance worker scaling from the
// experiments' trial-level parallelism: one planted instance, one lazy
// incremental greedy, W probe workers. This is the latency story a single
// service request sees; the experiment sweeps above measure throughput.
func benchScheduleAllLazy(b *testing.B, workers int) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: 2, Horizon: 96, IntervalsPerProc: 2, JobsPerInterval: 16,
		ExtraSlotsPerJob: 2,
		Cost:             power.Affine{Alpha: 4, Rate: 1},
	})
	opts := sched.Options{Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ScheduleAll(ins, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleAllLazyW1(b *testing.B) { benchScheduleAllLazy(b, 1) }
func BenchmarkScheduleAllLazyW2(b *testing.B) { benchScheduleAllLazy(b, 2) }
func BenchmarkScheduleAllLazyW4(b *testing.B) { benchScheduleAllLazy(b, 4) }
func BenchmarkScheduleAllLazyW8(b *testing.B) { benchScheduleAllLazy(b, 8) }

// BenchmarkScheduleAllMassive times the exact engine alone at the scale
// workload.MassiveInstance is shaped for: the instance is built once per
// size outside the timer, solved with SingleSlots candidates at W=1.
func BenchmarkScheduleAllMassive(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		ins := workload.MassiveInstance(rand.New(rand.NewSource(1)), 4, n, 2)
		opts := sched.Options{Policy: sched.SingleSlots, Workers: 1}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := sched.ScheduleAll(ins, opts)
				if err != nil {
					b.Fatal(err)
				}
				if s.Scheduled != n {
					b.Fatalf("scheduled %d of %d", s.Scheduled, n)
				}
			}
		})
	}
}

// BenchmarkSessionResolve measures the session's warm re-solve cycle —
// mutate (add a job), solve, mutate back (remove it), solve — against
// the same planted instance BenchmarkScheduleAllLazyW1 solves from
// scratch. The add-side re-solve rides the in-place model extension and
// the seeded lazy heap; the remove side pays the model rebuild, keeping
// the number honest about both invalidation paths.
func BenchmarkSessionResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: 2, Horizon: 96, IntervalsPerProc: 2, JobsPerInterval: 16,
		ExtraSlotsPerJob: 2,
		Cost:             power.Affine{Alpha: 4, Rate: 1},
	})
	sess, err := sched.NewSession(ins, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		b.Fatal(err)
	}
	extra := sched.Job{Value: 1, Allowed: ins.Jobs[0].Allowed}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := sess.AddJob(extra)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Solve(); err != nil {
			b.Fatal(err)
		}
		if err := sess.RemoveJob(j); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTrace runs a whole Poisson-burst arrival trace through
// the rolling-horizon engine per iteration: trace generation, one warm
// re-solve per event, commitment, and the final report.
func BenchmarkEngineTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := workload.PoissonBurstTrace(rand.New(rand.NewSource(11)), workload.TraceParams{
			Procs: 2, Horizon: 64, Jobs: 24, Window: 2,
		})
		rep, err := online.RunTrace(tr, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Plan == nil {
			b.Fatal("no plan")
		}
	}
}
