package sched

// The Reference entry points solve like ScheduleAll, PrizeCollecting and
// PrizeCollectingExact, but through the eager serial greedy
// (budget.Greedy) instead of the lazy engine every production path runs.
// They are the differential baseline of the conformance suite and of
// core.SolveAll: production schedules must be SameAs theirs.
// Options.PlainOracle selects the oracle as usual; Workers is ignored.

// ScheduleAllReference is ScheduleAll through the eager serial greedy.
func ScheduleAllReference(ins *Instance, opts Options) (*Schedule, error) {
	return onReference(ins, func(m *Model) (*Schedule, error) { return m.ScheduleAll(opts) })
}

// PrizeCollectingReference is PrizeCollecting through the eager serial
// greedy.
func PrizeCollectingReference(ins *Instance, z float64, opts Options) (*Schedule, error) {
	return onReference(ins, func(m *Model) (*Schedule, error) { return m.PrizeCollecting(z, opts) })
}

// PrizeCollectingExactReference is PrizeCollectingExact through the eager
// serial greedy.
func PrizeCollectingExactReference(ins *Instance, z float64, opts Options) (*Schedule, error) {
	return onReference(ins, func(m *Model) (*Schedule, error) { return m.PrizeCollectingExact(z, opts) })
}

func onReference(ins *Instance, solve func(*Model) (*Schedule, error)) (*Schedule, error) {
	m, err := NewModel(ins)
	if err != nil {
		return nil, err
	}
	m.reference = true
	return solve(m)
}
