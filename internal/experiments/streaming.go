package experiments

import (
	"math/rand"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// E18 compares the streaming sieve with the exact greedy on massive
// instances (workload.MassiveInstance, SingleSlots candidates — the shape
// the streaming tier is for). Two tiers solve each size:
//
//   - exact: ScheduleAll's lazy greedy, the one exact engine;
//   - stream: ScheduleAll's sieve path (Options.Streaming), bounded
//     candidate memory and Õ(n) total probes across residual passes.
//
// The table records oracle evals per tier and the streaming cost
// penalty. Both grow linearly in n, and the sieve spends about 7× the
// exact greedy's evals at every size, so it never wins on evals or solve
// time here; its only case is candidate residency, which this table does
// not measure. README "Streaming" reproduces this table.
func E18(cfg Config) *stats.Table {
	tbl := stats.NewTable("E18 — streaming sieve vs the exact greedy on massive instances",
		"jobs", "exact evals", "stream evals", "stream/exact evals", "stream/exact cost")
	sizes := []int{500, 1000, 2500, 5000}
	if cfg.Quick {
		sizes = []int{250, 500}
	}
	type row struct {
		exactEvals, streamEvals float64
		costRatio               float64
	}
	rows := make([]row, len(sizes))
	parTrials(len(sizes), cfg.Seed, func(trial int, rng *rand.Rand) {
		n := sizes[trial]
		ins := workload.MassiveInstance(rng, 4, n, 2)
		base := sched.Options{Policy: sched.SingleSlots, Workers: cfg.Workers}
		exact, err := sched.ScheduleAll(ins, base)
		if err != nil {
			return // leaves zeros; planted instances are always feasible
		}
		streamO := base
		streamO.Streaming = true
		streamO.StreamThreshold = -1
		stream, err := sched.ScheduleAll(ins, streamO)
		if err != nil {
			return
		}
		rows[trial] = row{
			exactEvals:  float64(exact.Evals),
			streamEvals: float64(stream.Evals),
			costRatio:   stream.Cost / exact.Cost,
		}
	})
	for i, n := range sizes {
		r := rows[i]
		ratio := 0.0
		if r.exactEvals > 0 {
			ratio = r.streamEvals / r.exactEvals
		}
		tbl.AddRow(float64(n), r.exactEvals, r.streamEvals, ratio, r.costRatio)
	}
	tbl.Note = "Shape check: exact and stream evals both grow ~linearly, and stream/exact evals stays above 1 (about 7) at every size: the sieve buys bounded candidate memory, not fewer evals; stream/exact cost stays a small constant."
	return tbl
}
