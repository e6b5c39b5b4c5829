package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/submodular"
)

// Model is the bipartite-graph formulation of an instance (§2.2): the X
// side holds every time-slot/processor pair usable by at least one job,
// the Y side holds the jobs, and edges encode the jobs' Allowed sets.
type Model struct {
	Ins       *Instance
	Slots     []SlotKey        // X index -> slot
	SlotIndex map[SlotKey]int  // slot -> X index
	G         *bipartite.Graph // X = usable slots, Y = jobs
	Values    []float64        // per-job values (Y weights)
	Order     []int            // jobs by descending value (for weighted F)

	// Per-processor sorted views of Slots, precomputed so that candidate
	// enumeration and IntervalItems run on sorted slices instead of map
	// lookups (they sit inside the greedy's candidate loops).
	timesByProc [][]int // sorted distinct slot times per processor
	slotsByProc [][]int // X indices parallel to timesByProc

	// ivScratch is the candidate-interval buffer reused across solves
	// (buildCandidates re-prices candidates on every solve; sessions
	// re-solve after every mutation). Reuse is why a Model must not run
	// concurrent solves — already the documented contract.
	ivScratch []Interval

	// reference marks a model built by a Reference entry point: its
	// stateless solves run the eager serial greedy (see Model.greedy).
	reference bool
}

// NewModel builds the bipartite formulation. Only slots usable by some job
// become X vertices; slots no job can use never help any matching.
func NewModel(ins *Instance) (*Model, error) {
	if err := ins.check(); err != nil {
		return nil, err
	}
	m := &Model{Ins: ins, SlotIndex: map[SlotKey]int{}}
	var edges []bipartite.Edge
	seen := map[SlotKey]bool{} // reused across jobs: one map, cleared per job
	for j, job := range ins.Jobs {
		clear(seen)
		for _, s := range job.Allowed {
			if seen[s] {
				continue // duplicate Allowed entries are harmless input noise
			}
			seen[s] = true
			idx, ok := m.SlotIndex[s]
			if !ok {
				idx = len(m.Slots)
				m.SlotIndex[s] = idx
				m.Slots = append(m.Slots, s)
			}
			edges = append(edges, bipartite.Edge{X: idx, Y: j})
		}
	}
	m.G = bipartite.NewGraph(len(m.Slots), len(ins.Jobs))
	m.G.AddEdges(edges)
	m.Values = make([]float64, len(ins.Jobs))
	for j, job := range ins.Jobs {
		m.Values[j] = job.Value
	}
	m.Order = bipartite.WeightedOrder(m.Values)
	m.buildProcIndex()
	return m, nil
}

// buildProcIndex sorts the usable slots per processor by time and records
// the matching X indices, replacing per-lookup map traffic in the hot
// candidate-enumeration paths.
func (m *Model) buildProcIndex() {
	m.timesByProc = make([][]int, m.Ins.Procs)
	m.slotsByProc = make([][]int, m.Ins.Procs)
	perProc := make([][]int, m.Ins.Procs) // X indices grouped by processor
	for x, s := range m.Slots {
		perProc[s.Proc] = append(perProc[s.Proc], x)
	}
	for proc, xs := range perProc {
		sort.Slice(xs, func(a, b int) bool { return m.Slots[xs[a]].Time < m.Slots[xs[b]].Time })
		times := make([]int, len(xs))
		for i, x := range xs {
			times[i] = m.Slots[x].Time
		}
		m.timesByProc[proc] = times
		m.slotsByProc[proc] = xs
	}
}

// addJob extends the model in place for a job just appended to the
// instance's Jobs slice. The extension is equivalent to rebuilding from
// scratch: NewModel assigns X indices in first-appearance order scanning
// jobs in order, and an appended job's novel slots appear last in exactly
// the order addJob appends them; likewise its Y vertex and edges land at
// the positions a full scan would produce. Sessions rely on this for
// byte-identical warm re-solves after AddJob. Live matcher oracles over
// the old graph must not be reused (they are rebuilt per solve).
func (m *Model) addJob(job Job) {
	j := m.G.AddY()
	seen := map[SlotKey]bool{}
	for _, sk := range job.Allowed {
		if seen[sk] {
			continue
		}
		seen[sk] = true
		idx, ok := m.SlotIndex[sk]
		if !ok {
			idx = m.G.AddX()
			m.SlotIndex[sk] = idx
			m.Slots = append(m.Slots, sk)
			// Keep the per-processor sorted views sorted: (proc, time) is
			// new, so the time is absent from this processor's list.
			times := m.timesByProc[sk.Proc]
			pos := sort.SearchInts(times, sk.Time)
			m.timesByProc[sk.Proc] = append(times[:pos], append([]int{sk.Time}, times[pos:]...)...)
			xs := m.slotsByProc[sk.Proc]
			m.slotsByProc[sk.Proc] = append(xs[:pos], append([]int{idx}, xs[pos:]...)...)
		}
		m.G.AddEdge(idx, j)
	}
	m.Values = append(m.Values, job.Value)
	m.Order = bipartite.WeightedOrder(m.Values)
}

// Candidates enumerates candidate awake intervals under the policy.
func (m *Model) Candidates(policy CandidatePolicy) ([]Interval, error) {
	return m.appendCandidates(nil, policy)
}

// appendCandidates appends the policy's enumeration to out, growing it to
// the exact final size up front so the enumeration loops never reallocate
// (buildCandidates feeds a reusable buffer through here every solve).
func (m *Model) appendCandidates(out []Interval, policy CandidatePolicy) ([]Interval, error) {
	switch policy {
	case SingleSlots:
		out = slices.Grow(out, len(m.Slots))
		for _, s := range m.Slots {
			out = append(out, Interval{Proc: s.Proc, Start: s.Time, End: s.Time + 1})
		}
		return out, nil
	case EventPoints:
		total := 0
		for _, times := range m.timesByProc {
			total += len(times) * (len(times) + 1) / 2
		}
		out = slices.Grow(out, total)
		for proc := 0; proc < m.Ins.Procs; proc++ {
			times := m.timesByProc[proc]
			for i := range times {
				for j := i; j < len(times); j++ {
					out = append(out, Interval{Proc: proc, Start: times[i], End: times[j] + 1})
				}
			}
		}
		return out, nil
	case AllPairs:
		const maxAllPairs = 4_000_000
		h := m.Ins.Horizon
		// Guard p·h² > maxAllPairs by division: the product itself can
		// overflow int on adversarial horizons. h > 2000 alone already
		// exceeds the cap (Procs ≥ 1), and h ≤ 2000 keeps h² safe.
		if p := m.Ins.Procs; h > 2000 || p > maxAllPairs/(h*h) {
			return nil, fmt.Errorf("sched: AllPairs would enumerate ~%.3g intervals; use EventPoints",
				float64(p)*float64(h)*float64(h)/2)
		}
		out = slices.Grow(out, m.Ins.Procs*h*(h+1)/2)
		for proc := 0; proc < m.Ins.Procs; proc++ {
			for s := 0; s < h; s++ {
				for e := s + 1; e <= h; e++ {
					out = append(out, Interval{Proc: proc, Start: s, End: e})
				}
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("sched: unknown candidate policy %d", int(policy))
	}
}

// IntervalItems returns the X indices of usable slots inside iv, in
// increasing time order. A binary search plus a linear walk over the
// processor's sorted slots replaces the per-time map lookups the candidate
// loops used to pay for. The returned slice is a view into the model's
// per-processor index — the caller must not modify it, and it is only
// valid until the model is next mutated (addJob re-splices the index).
// Candidate lists are rebuilt per solve, so solver-internal callers are
// always within that window.
func (m *Model) IntervalItems(iv Interval) []int {
	times := m.timesByProc[iv.Proc]
	lo := sort.SearchInts(times, iv.Start)
	hi := lo
	for hi < len(times) && times[hi] < iv.End {
		hi++
	}
	if lo == hi {
		return nil
	}
	return m.slotsByProc[iv.Proc][lo:hi:hi]
}

// candidate pairs an interval with its precomputed cost and slot items.
type candidate struct {
	iv    Interval
	cost  float64
	items []int
}

// buildCandidates prices and prunes the candidate intervals (the policy's
// enumeration plus any caller-supplied extras): infinite-cost
// (unavailable) and slotless intervals are dropped; negative costs are an
// input error.
func (m *Model) buildCandidates(policy CandidatePolicy, extra []Interval) ([]candidate, error) {
	ivs, err := m.appendCandidates(m.ivScratch[:0], policy)
	if err != nil {
		return nil, err
	}
	m.ivScratch = ivs // keep the grown buffer for the next re-pricing
	for _, iv := range extra {
		if iv.Proc < 0 || iv.Proc >= m.Ins.Procs || iv.Start < 0 || iv.End > m.Ins.Horizon || iv.Start >= iv.End {
			return nil, fmt.Errorf("sched: extra candidate %v outside instance", iv)
		}
	}
	ivs = append(ivs, extra...)
	out := make([]candidate, 0, len(ivs))
	for _, iv := range ivs {
		c := m.Ins.Cost.Cost(iv.Proc, iv.Start, iv.End)
		if math.IsInf(c, 1) || math.IsNaN(c) {
			continue
		}
		if c < 0 {
			return nil, fmt.Errorf("sched: negative cost %g for interval %v", c, iv)
		}
		items := m.IntervalItems(iv)
		if len(items) == 0 {
			continue
		}
		out = append(out, candidate{iv: iv, cost: c, items: items})
	}
	return out, nil
}

// budgetSubsets converts candidates to budget.Subset values over the slot
// universe, passing the candidates' slot lists through as element-list
// subsets (budget.Subset.Elems) — no per-candidate bitset is ever built;
// the old bitset round-trip (FromSlice here, Elements back inside the
// greedy workspace) dominated ScheduleAll's allocation profile. Labels
// are left empty: nothing reads them, and rendering one Sprintf per
// candidate showed up in greedy profiles.
func budgetSubsets(cands []candidate) []budget.Subset {
	subs := make([]budget.Subset, len(cands))
	for i, c := range cands {
		subs[i] = budget.Subset{
			Elems: c.items,
			Cost:  c.cost,
		}
	}
	return subs
}

// matchFn is Lemma 2.2.2's utility: F(S) = size of the maximum matching
// saturating only slot-vertices in S. Monotone submodular.
type matchFn struct{ m *Model }

// Universe implements submodular.Function.
func (f matchFn) Universe() int { return len(f.m.Slots) }

// Eval implements submodular.Function via a fresh Hopcroft–Karp run.
func (f matchFn) Eval(s *bitset.Set) float64 {
	return float64(bipartite.MaxMatchingSize(f.m.G, s))
}

// NewIncremental implements submodular.IncrementalProvider: the budgeted
// greedy probes F(S ∪ Sᵢ) through a persistent bipartite.Matcher
// (snapshot + augment) instead of a fresh Hopcroft–Karp run per call.
func (f matchFn) NewIncremental() submodular.Incremental {
	return &matchOracle{fn: f, mat: bipartite.NewMatcher(f.m.G)}
}

// matchOracle adapts bipartite.Matcher to submodular.Incremental. The
// delta for one committed batch is the matcher's forward journal — the
// (x, y) assignments its augmenting searches performed — so a replica
// reproduces the exact matching by replaying writes instead of re-running
// the searches. Matchers cannot be copy-on-write (probes mutate the match
// arrays before rolling back), so replicas are deep copies synced by
// journal.
type matchOracle struct {
	fn    matchFn
	mat   *bipartite.Matcher
	epoch uint64
	delta *matchDelta // reusable CommitDelta buffer, created on first use
}

// matchDelta is matchOracle's submodular.Delta: the committed slot
// vertices, the matcher's assignment journal, and the realized gain. The
// journal slice is owned by the committing matcher and valid until its
// next journaled commit — the same cadence that invalidates the delta.
type matchDelta struct {
	epoch   uint64
	xs      []int
	journal []bipartite.MatchAssign
	gain    int
}

// DeltaEpoch implements submodular.Delta.
func (d *matchDelta) DeltaEpoch() uint64 { return d.epoch }

// Universe implements submodular.Function.
func (o *matchOracle) Universe() int { return o.fn.Universe() }

// Eval implements submodular.Function via the stateless oracle.
func (o *matchOracle) Eval(s *bitset.Set) float64 { return o.fn.Eval(s) }

// Base implements submodular.Incremental.
func (o *matchOracle) Base() *bitset.Set { return o.mat.Enabled() }

// Value implements submodular.Incremental.
func (o *matchOracle) Value() float64 { return float64(o.mat.Size()) }

// Gain implements submodular.Incremental.
func (o *matchOracle) Gain(items []int) float64 { return float64(o.mat.GainOfSet(items)) }

// Commit implements submodular.Incremental.
func (o *matchOracle) Commit(items []int) float64 {
	o.epoch++
	return float64(o.mat.EnableSet(items))
}

// Epoch implements submodular.Incremental.
func (o *matchOracle) Epoch() uint64 { return o.epoch }

// CommitDelta implements submodular.Incremental.
func (o *matchOracle) CommitDelta(items []int) (submodular.Delta, float64) {
	if o.delta == nil {
		o.delta = &matchDelta{}
	}
	d := o.delta
	d.xs = append(d.xs[:0], items...)
	gain, journal := o.mat.EnableSetJournaled(items)
	o.epoch++
	d.epoch = o.epoch
	d.journal = journal
	d.gain = gain
	return d, float64(gain)
}

// ApplyDelta implements submodular.Incremental.
func (o *matchOracle) ApplyDelta(d submodular.Delta) error {
	md, ok := d.(*matchDelta)
	if !ok {
		return fmt.Errorf("sched: matchOracle cannot apply foreign delta %T", d)
	}
	switch md.epoch {
	case o.epoch:
		return nil
	case o.epoch + 1:
	default:
		return fmt.Errorf("sched: matchOracle delta for epoch %d applied at epoch %d", md.epoch, o.epoch)
	}
	o.mat.ApplyJournal(md.xs, md.journal, md.gain)
	o.epoch++
	return nil
}

// Reset implements submodular.Incremental.
func (o *matchOracle) Reset() {
	o.mat = bipartite.NewMatcher(o.fn.m.G)
	o.epoch = 0
}

// Replica implements submodular.Incremental: a deep matcher copy over the
// shared graph, for the parallel greedy's per-worker shards. The reusable
// delta buffer stays with the original, so a replica's CommitDelta cannot
// invalidate a delta the original handed out.
func (o *matchOracle) Replica() submodular.Incremental {
	return &matchOracle{fn: o.fn, mat: o.mat.Clone(), epoch: o.epoch}
}

// weightedMatchFn is Lemma 2.3.2's utility: F(S) = maximum total job value
// of a matching saturating only slot-vertices in S. Monotone submodular.
type weightedMatchFn struct{ m *Model }

// Universe implements submodular.Function.
func (f weightedMatchFn) Universe() int { return len(f.m.Slots) }

// Eval implements submodular.Function.
func (f weightedMatchFn) Eval(s *bitset.Set) float64 {
	v, _, _ := bipartite.WeightedValue(f.m.G, f.m.Values, f.m.Order, s)
	return v
}

// NewIncremental implements submodular.IncrementalProvider via the
// incremental weighted matcher, replacing WeightedValue's per-call match
// array allocations and full re-augmentation.
func (f weightedMatchFn) NewIncremental() submodular.Incremental {
	return &weightedOracle{fn: f, mat: bipartite.NewWeightedMatcher(f.m.G, f.m.Values, f.m.Order)}
}

// weightedOracle adapts bipartite.WeightedMatcher to submodular.Incremental,
// with the same journal-replay delta scheme as matchOracle (see there for
// the ownership and no-COW rationale).
type weightedOracle struct {
	fn    weightedMatchFn
	mat   *bipartite.WeightedMatcher
	epoch uint64
	delta *weightedDelta
}

// weightedDelta is weightedOracle's submodular.Delta; ownership matches
// matchDelta.
type weightedDelta struct {
	epoch   uint64
	xs      []int
	journal []bipartite.MatchAssign
	gain    float64
}

// DeltaEpoch implements submodular.Delta.
func (d *weightedDelta) DeltaEpoch() uint64 { return d.epoch }

// Universe implements submodular.Function.
func (o *weightedOracle) Universe() int { return o.fn.Universe() }

// Eval implements submodular.Function via the stateless oracle.
func (o *weightedOracle) Eval(s *bitset.Set) float64 { return o.fn.Eval(s) }

// Base implements submodular.Incremental.
func (o *weightedOracle) Base() *bitset.Set { return o.mat.Enabled() }

// Value implements submodular.Incremental.
func (o *weightedOracle) Value() float64 { return o.mat.Value() }

// Gain implements submodular.Incremental.
func (o *weightedOracle) Gain(items []int) float64 { return o.mat.GainOfSet(items) }

// Commit implements submodular.Incremental.
func (o *weightedOracle) Commit(items []int) float64 {
	o.epoch++
	return o.mat.EnableSet(items)
}

// Epoch implements submodular.Incremental.
func (o *weightedOracle) Epoch() uint64 { return o.epoch }

// CommitDelta implements submodular.Incremental.
func (o *weightedOracle) CommitDelta(items []int) (submodular.Delta, float64) {
	if o.delta == nil {
		o.delta = &weightedDelta{}
	}
	d := o.delta
	d.xs = append(d.xs[:0], items...)
	gain, journal := o.mat.EnableSetJournaled(items)
	o.epoch++
	d.epoch = o.epoch
	d.journal = journal
	d.gain = gain
	return d, gain
}

// ApplyDelta implements submodular.Incremental.
func (o *weightedOracle) ApplyDelta(d submodular.Delta) error {
	wd, ok := d.(*weightedDelta)
	if !ok {
		return fmt.Errorf("sched: weightedOracle cannot apply foreign delta %T", d)
	}
	switch wd.epoch {
	case o.epoch:
		return nil
	case o.epoch + 1:
	default:
		return fmt.Errorf("sched: weightedOracle delta for epoch %d applied at epoch %d", wd.epoch, o.epoch)
	}
	o.mat.ApplyJournal(wd.xs, wd.journal, wd.gain)
	o.epoch++
	return nil
}

// Reset implements submodular.Incremental.
func (o *weightedOracle) Reset() {
	o.mat = bipartite.NewWeightedMatcher(o.fn.m.G, o.fn.m.Values, o.fn.m.Order)
	o.epoch = 0
}

// Replica implements submodular.Incremental: a deep matcher copy, as for
// matchOracle.
func (o *weightedOracle) Replica() submodular.Incremental {
	return &weightedOracle{fn: o.fn, mat: o.mat.Clone(), epoch: o.epoch}
}

// Functions exposed for property tests.
var (
	_ submodular.Function            = matchFn{}
	_ submodular.Function            = weightedMatchFn{}
	_ submodular.IncrementalProvider = matchFn{}
	_ submodular.IncrementalProvider = weightedMatchFn{}
	_ submodular.Incremental         = (*matchOracle)(nil)
	_ submodular.Incremental         = (*weightedOracle)(nil)
)

// MatchingUtility returns Lemma 2.2.2's F for external property tests.
func (m *Model) MatchingUtility() submodular.Function { return matchFn{m} }

// WeightedUtility returns Lemma 2.3.2's F for external property tests.
func (m *Model) WeightedUtility() submodular.Function { return weightedMatchFn{m} }
