package submodular

import (
	"fmt"

	"repro/internal/bitset"
)

// Incremental is a stateful value oracle over a growing committed base set
// S. The greedy algorithms in this repository issue O(rounds × candidates)
// probes of the form F(S ∪ Sᵢ) − F(S); a plain Function answers each by
// recomputing F from scratch, while an Incremental amortizes work across
// probes by maintaining whatever summary of S makes marginals cheap
// (coverage counts, per-client bests, matchings). Gain is a snapshot probe
// in the style of bipartite.Matcher.GainOfSet: it must leave the oracle
// exactly as it found it; only Commit, CommitDelta and ApplyDelta move the
// base set.
//
// Implementations are not safe for concurrent use: probes share scratch
// state. Concurrent algorithms instead give each goroutine its own
// Replica, and there is one way to keep replicas in step: the primary
// commits with CommitDelta and every replica applies the returned Delta
// with ApplyDelta. A replica is either a copy-on-write view sharing the
// committed state (IncCoverage, IncFacilityLocation — ApplyDelta is then
// an epoch check) or a deep copy (the additive oracles, the matchers —
// ApplyDelta replays the recorded change). Either way it stays
// bit-identical to the primary, so a probe answers the same on any of
// them (the invariant behind the parallel greedy's determinism).
//
// Epochs count committed batches. Commit, CommitDelta and a successful
// ApplyDelta each advance the lineage by one epoch; Reset returns it to
// zero.
type Incremental interface {
	Function

	// Base returns the committed base set S. Callers must not modify it.
	Base() *bitset.Set
	// Value returns F(S) for the committed base set.
	Value() float64
	// Gain returns F(S ∪ items) − F(S) without committing anything.
	// Elements already in S and duplicates within items contribute once.
	Gain(items []int) float64
	// Commit adds items to S and returns the realized gain.
	Commit(items []int) float64
	// Reset empties the base set (for copy-on-write lineages: the shared
	// committed state, affecting every replica).
	Reset()

	// Epoch returns the number of committed batches so far.
	Epoch() uint64
	// CommitDelta commits items exactly like Commit and returns the
	// realized gain plus a Delta the lineage's replicas apply. The Delta
	// is invalidated by the next CommitDelta on this oracle.
	CommitDelta(items []int) (Delta, float64)
	// ApplyDelta brings a replica up to a delta produced by its primary.
	// A delta at the oracle's current epoch is a no-op (the committing
	// oracle itself and copy-on-write views already hold it); a stale,
	// skipped or foreign delta is an error and leaves the replica
	// untouched.
	ApplyDelta(Delta) error
	// Replica returns a probe replica at the same epoch, with its own
	// probe scratch and sharing only immutable problem data (and, for
	// copy-on-write oracles, the committed state). Replicas may probe
	// concurrently with each other but not with a commit anywhere in the
	// lineage; they learn of commits only through ApplyDelta.
	Replica() Incremental
}

// IncrementalProvider is implemented by stateless Functions that can
// manufacture a fresh incremental oracle for themselves. Algorithms
// type-assert for it (via AsIncremental) to take the fast path and fall
// back to plain Eval otherwise.
type IncrementalProvider interface {
	NewIncremental() Incremental
}

// AsIncremental returns a fresh incremental oracle (empty base) for f, or
// (nil, false) if f offers none. Counting wrappers are unwrapped and the
// returned oracle keeps counting: each Gain or Eval costs one call, Commit
// and delta replay cost none (mirroring the plain greedy, which re-uses
// the winning probe's value instead of re-evaluating on commit). Only
// IncrementalProvider is honored — a Function that happens to be a live
// Incremental is not hijacked, so algorithms never mutate caller-owned
// oracle state.
func AsIncremental(f Function) (Incremental, bool) {
	switch v := f.(type) {
	case *Counting:
		inner, ok := AsIncremental(v.F)
		if !ok {
			return nil, false
		}
		return &countingIncremental{inc: inner, c: v}, true
	case IncrementalProvider:
		return v.NewIncremental(), true
	}
	return nil, false
}

// countingIncremental charges Gain and Eval probes to the wrapped
// Counting's call counter.
type countingIncremental struct {
	inc Incremental
	c   *Counting //powersched:clone-shared replicas bill one shared total; the counter is atomic
}

func (w *countingIncremental) Universe() int     { return w.inc.Universe() }
func (w *countingIncremental) Base() *bitset.Set { return w.inc.Base() }
func (w *countingIncremental) Value() float64    { return w.inc.Value() }
func (w *countingIncremental) Reset()            { w.inc.Reset() }
func (w *countingIncremental) Epoch() uint64     { return w.inc.Epoch() }

func (w *countingIncremental) Eval(s *bitset.Set) float64 { return w.c.Eval(s) }

func (w *countingIncremental) Gain(items []int) float64 {
	w.c.count()
	return w.inc.Gain(items)
}

func (w *countingIncremental) Commit(items []int) float64 { return w.inc.Commit(items) }

func (w *countingIncremental) CommitDelta(items []int) (Delta, float64) {
	return w.inc.CommitDelta(items)
}

func (w *countingIncremental) ApplyDelta(d Delta) error { return w.inc.ApplyDelta(d) }

// Replica implements Incremental. The replica keeps charging the same
// Counting wrapper, whose counter is atomic, so concurrent replicas bill
// one shared total.
func (w *countingIncremental) Replica() Incremental {
	return &countingIncremental{inc: w.inc.Replica(), c: w.c}
}

// sharedDelta is the Delta of the copy-on-write oracles (IncCoverage,
// IncFacilityLocation). Their replicas share the committed state, so the
// primary's commit has already moved every replica: the delta only names
// the lineage (its shared state, compared by identity) and the epoch the
// commit reached.
type sharedDelta[S any] struct {
	st    *S
	epoch uint64
}

// DeltaEpoch implements Delta.
func (d *sharedDelta[S]) DeltaEpoch() uint64 { return d.epoch }

// applyShared is ApplyDelta for the copy-on-write oracles: a delta of the
// replica's own lineage at the current epoch is already applied, and
// anything else is foreign or stale.
func applyShared[S any](oracle string, st *S, epoch uint64, d Delta) error {
	sd, ok := d.(*sharedDelta[S])
	if !ok || sd.st != st {
		return errWrongDelta(oracle, d)
	}
	if sd.epoch != epoch {
		return fmt.Errorf("submodular: %s delta for epoch %d applied at epoch %d", oracle, sd.epoch, epoch)
	}
	return nil
}

// ---- Coverage ----

// covState is the committed state of an IncCoverage lineage, shared by
// the primary and its copy-on-write replicas.
type covState struct {
	base    *bitset.Set // over the item universe
	covered *bitset.Set // over the ground universe
	value   float64
	epoch   uint64
}

// IncCoverage maintains the union of the base set's coverage as a bitset,
// so a probe costs O(|items| + ground words) instead of O(|S| × ground
// words) per Eval.
type IncCoverage struct {
	c *Coverage //powersched:clone-shared immutable problem data, frozen at construction
	// st is the lineage's committed state.
	//powersched:delta-shared deltas hold it only to name their lineage
	st      *covState              //powersched:clone-shared replicas are copy-on-write views of one committed state, synced by ApplyDelta's epoch check
	scratch *bitset.Set            // ground-universe probe scratch, always replica-private
	delta   *sharedDelta[covState] // reusable CommitDelta buffer, created on first use
}

// NewIncremental implements IncrementalProvider.
func (c *Coverage) NewIncremental() Incremental {
	return &IncCoverage{
		c: c,
		st: &covState{
			base:    bitset.New(len(c.Sets)),
			covered: bitset.New(c.m),
		},
		scratch: bitset.New(c.m),
	}
}

// Universe implements Function.
func (ic *IncCoverage) Universe() int { return ic.c.Universe() }

// Eval implements Function by delegating to the plain oracle.
func (ic *IncCoverage) Eval(s *bitset.Set) float64 { return ic.c.Eval(s) }

// Base implements Incremental.
func (ic *IncCoverage) Base() *bitset.Set { return ic.st.base }

// Value implements Incremental.
func (ic *IncCoverage) Value() float64 { return ic.st.value }

// Epoch implements Incremental.
func (ic *IncCoverage) Epoch() uint64 { return ic.st.epoch }

// probe fills scratch with the elements newly covered by items and returns
// their total weight.
func (ic *IncCoverage) probe(items []int) float64 {
	ic.scratch.Clear()
	for _, it := range items {
		if ic.st.base.Contains(it) {
			continue
		}
		ic.scratch.UnionWith(ic.c.Sets[it])
	}
	ic.scratch.SubtractWith(ic.st.covered)
	if ic.c.Weights == nil {
		return float64(ic.scratch.Count())
	}
	total := 0.0
	ic.scratch.ForEach(func(e int) bool {
		total += ic.c.Weights[e]
		return true
	})
	return total
}

// Gain implements Incremental.
func (ic *IncCoverage) Gain(items []int) float64 { return ic.probe(items) }

// Commit implements Incremental.
func (ic *IncCoverage) Commit(items []int) float64 {
	gain := ic.probe(items)
	ic.st.covered.UnionWith(ic.scratch)
	for _, it := range items {
		ic.st.base.Add(it)
	}
	ic.st.value += gain
	ic.st.epoch++
	return gain
}

// CommitDelta implements Incremental. The returned delta is valid until
// the next CommitDelta on this oracle.
func (ic *IncCoverage) CommitDelta(items []int) (Delta, float64) {
	gain := ic.Commit(items)
	if ic.delta == nil {
		ic.delta = &sharedDelta[covState]{st: ic.st}
	}
	ic.delta.epoch = ic.st.epoch
	return ic.delta, gain
}

// ApplyDelta implements Incremental: the shared state already holds the
// commit, so this only checks lineage and epoch.
func (ic *IncCoverage) ApplyDelta(d Delta) error {
	return applyShared("IncCoverage", ic.st, ic.st.epoch, d)
}

// Reset implements Incremental.
func (ic *IncCoverage) Reset() {
	ic.st.base.Clear()
	ic.st.covered.Clear()
	ic.st.value = 0
	ic.st.epoch = 0
}

// Replica implements Incremental: a copy-on-write view that shares the
// committed state (the large covered set is never duplicated) and owns
// only its probe scratch.
func (ic *IncCoverage) Replica() Incremental {
	return &IncCoverage{
		c:       ic.c,
		st:      ic.st,
		scratch: bitset.New(ic.c.m),
	}
}

// ---- FacilityLocation ----

// flState is the committed state of an IncFacilityLocation lineage,
// shared by the primary and its copy-on-write replicas.
type flState struct {
	base  *bitset.Set
	best  []float64 // per-client running best over the base set
	value float64
	epoch uint64
}

// IncFacilityLocation keeps each client's best committed benefit, so a
// probe costs O(clients × |new items|) instead of O(clients × |S|).
type IncFacilityLocation struct {
	f *FacilityLocation //powersched:clone-shared immutable benefit matrix, frozen at construction
	// st is the lineage's committed state.
	//powersched:delta-shared deltas hold it only to name their lineage
	st    *flState              //powersched:clone-shared replicas are copy-on-write views of one committed state, synced by ApplyDelta's epoch check
	fresh []int                 // probe scratch: items not yet in the base
	delta *sharedDelta[flState] // reusable CommitDelta buffer, created on first use
}

// NewIncremental implements IncrementalProvider.
func (f *FacilityLocation) NewIncremental() Incremental {
	return &IncFacilityLocation{
		f: f,
		st: &flState{
			base: bitset.New(f.n),
			best: make([]float64, len(f.Benefit)),
		},
	}
}

// Universe implements Function.
func (ifl *IncFacilityLocation) Universe() int { return ifl.f.Universe() }

// Eval implements Function by delegating to the plain oracle.
func (ifl *IncFacilityLocation) Eval(s *bitset.Set) float64 { return ifl.f.Eval(s) }

// Base implements Incremental.
func (ifl *IncFacilityLocation) Base() *bitset.Set { return ifl.st.base }

// Value implements Incremental.
func (ifl *IncFacilityLocation) Value() float64 { return ifl.st.value }

// Epoch implements Incremental.
func (ifl *IncFacilityLocation) Epoch() uint64 { return ifl.st.epoch }

// newItems filters items down to those outside the base set.
func (ifl *IncFacilityLocation) newItems(items []int) []int {
	ifl.fresh = ifl.fresh[:0]
	for _, it := range items {
		if !ifl.st.base.Contains(it) {
			ifl.fresh = append(ifl.fresh, it)
		}
	}
	return ifl.fresh
}

// sweep computes the total per-client best improvement from fresh items,
// writing the new bests back when commit is set.
func (ifl *IncFacilityLocation) sweep(fresh []int, commit bool) float64 {
	gain := 0.0
	for ci, row := range ifl.f.Benefit {
		m := ifl.st.best[ci]
		for _, it := range fresh {
			if row[it] > m {
				m = row[it]
			}
		}
		gain += m - ifl.st.best[ci]
		if commit {
			ifl.st.best[ci] = m
		}
	}
	return gain
}

// Gain implements Incremental.
func (ifl *IncFacilityLocation) Gain(items []int) float64 {
	fresh := ifl.newItems(items)
	if len(fresh) == 0 {
		return 0
	}
	return ifl.sweep(fresh, false)
}

// Commit implements Incremental.
func (ifl *IncFacilityLocation) Commit(items []int) float64 {
	fresh := ifl.newItems(items)
	gain := ifl.sweep(fresh, true)
	for _, it := range fresh {
		ifl.st.base.Add(it)
	}
	ifl.st.value += gain
	ifl.st.epoch++
	return gain
}

// CommitDelta implements Incremental. The returned delta is valid until
// the next CommitDelta on this oracle.
func (ifl *IncFacilityLocation) CommitDelta(items []int) (Delta, float64) {
	gain := ifl.Commit(items)
	if ifl.delta == nil {
		ifl.delta = &sharedDelta[flState]{st: ifl.st}
	}
	ifl.delta.epoch = ifl.st.epoch
	return ifl.delta, gain
}

// ApplyDelta implements Incremental: the shared state already holds the
// commit, so this only checks lineage and epoch.
func (ifl *IncFacilityLocation) ApplyDelta(d Delta) error {
	return applyShared("IncFacilityLocation", ifl.st, ifl.st.epoch, d)
}

// Replica implements Incremental: a copy-on-write view that shares the
// committed per-client bests instead of copying them per worker.
func (ifl *IncFacilityLocation) Replica() Incremental {
	return &IncFacilityLocation{
		f:  ifl.f,
		st: ifl.st,
	}
}

// Reset implements Incremental.
func (ifl *IncFacilityLocation) Reset() {
	ifl.st.base.Clear()
	for i := range ifl.st.best {
		ifl.st.best[i] = 0
	}
	ifl.st.value = 0
	ifl.st.epoch = 0
}

// ---- Modular ----

// modDelta is the Delta for the additive oracles (IncModular, IncConcave):
// committed items plus precomputed gain/count change.
type modDelta struct {
	epoch uint64
	items []int
	added int
	gain  float64
}

// DeltaEpoch implements Delta.
func (d *modDelta) DeltaEpoch() uint64 { return d.epoch }

// IncModular answers probes in O(|items|): the marginal of an additive
// function is the weight sum of genuinely new items.
type IncModular struct {
	m     *Modular //powersched:clone-shared immutable weight vector, frozen at construction
	base  *bitset.Set
	value float64
	epoch uint64
	seen  []int32 // probe-local dedup stamps
	stamp int32
	delta *modDelta // reusable CommitDelta buffer, created on first use
}

// NewIncremental implements IncrementalProvider.
func (m *Modular) NewIncremental() Incremental {
	return &IncModular{m: m, base: bitset.New(len(m.Weights)), seen: make([]int32, len(m.Weights))}
}

// Universe implements Function.
func (im *IncModular) Universe() int { return im.m.Universe() }

// Eval implements Function by delegating to the plain oracle.
func (im *IncModular) Eval(s *bitset.Set) float64 { return im.m.Eval(s) }

// Base implements Incremental.
func (im *IncModular) Base() *bitset.Set { return im.base }

// Value implements Incremental.
func (im *IncModular) Value() float64 { return im.value }

// Epoch implements Incremental.
func (im *IncModular) Epoch() uint64 { return im.epoch }

// Gain implements Incremental.
func (im *IncModular) Gain(items []int) float64 {
	im.stamp++
	gain := 0.0
	for _, it := range items {
		if im.base.Contains(it) || im.seen[it] == im.stamp {
			continue
		}
		im.seen[it] = im.stamp
		gain += im.m.Weights[it]
	}
	return gain
}

// Commit implements Incremental.
func (im *IncModular) Commit(items []int) float64 {
	gain := im.Gain(items)
	for _, it := range items {
		im.base.Add(it)
	}
	im.value += gain
	im.epoch++
	return gain
}

// CommitDelta implements Incremental.
func (im *IncModular) CommitDelta(items []int) (Delta, float64) {
	if im.delta == nil {
		im.delta = &modDelta{}
	}
	d := im.delta
	d.items = append(d.items[:0], items...)
	d.gain = im.Commit(items)
	d.epoch = im.epoch
	return d, d.gain
}

// ApplyDelta implements Incremental.
func (im *IncModular) ApplyDelta(d Delta) error {
	md, ok := d.(*modDelta)
	if !ok {
		return errWrongDelta("IncModular", d)
	}
	apply, err := epochCheck("IncModular", im.epoch, md.epoch)
	if err != nil || !apply {
		return err
	}
	for _, it := range md.items {
		im.base.Add(it)
	}
	im.value += md.gain
	im.epoch++
	return nil
}

// Reset implements Incremental.
func (im *IncModular) Reset() {
	im.base.Clear()
	im.value = 0
	im.epoch = 0
}

// Replica implements Incremental: a deep copy with fresh dedup stamps,
// sharing only the weights.
func (im *IncModular) Replica() Incremental {
	return &IncModular{
		m:     im.m,
		base:  im.base.Clone(),
		value: im.value,
		epoch: im.epoch,
		seen:  make([]int32, len(im.m.Weights)),
	}
}

// ---- ConcaveCardinality ----

// IncConcave tracks |S| so a probe costs O(|items|) plus one φ evaluation.
type IncConcave struct {
	c     *ConcaveCardinality //powersched:clone-shared immutable concave curve φ, frozen at construction
	base  *bitset.Set
	count int
	epoch uint64
	seen  []int32
	stamp int32
	delta *modDelta // reusable CommitDelta buffer, created on first use
}

// NewIncremental implements IncrementalProvider.
func (c *ConcaveCardinality) NewIncremental() Incremental {
	return &IncConcave{c: c, base: bitset.New(c.n), seen: make([]int32, c.n)}
}

// Universe implements Function.
func (icc *IncConcave) Universe() int { return icc.c.Universe() }

// Eval implements Function by delegating to the plain oracle.
func (icc *IncConcave) Eval(s *bitset.Set) float64 { return icc.c.Eval(s) }

// Base implements Incremental.
func (icc *IncConcave) Base() *bitset.Set { return icc.base }

// Value implements Incremental.
func (icc *IncConcave) Value() float64 { return icc.c.Phi(icc.count) }

// Epoch implements Incremental.
func (icc *IncConcave) Epoch() uint64 { return icc.epoch }

// added counts the genuinely new items in a probe.
func (icc *IncConcave) added(items []int) int {
	icc.stamp++
	added := 0
	for _, it := range items {
		if icc.base.Contains(it) || icc.seen[it] == icc.stamp {
			continue
		}
		icc.seen[it] = icc.stamp
		added++
	}
	return added
}

// Gain implements Incremental.
func (icc *IncConcave) Gain(items []int) float64 {
	added := icc.added(items)
	if added == 0 {
		return 0
	}
	return icc.c.Phi(icc.count+added) - icc.c.Phi(icc.count)
}

// Commit implements Incremental.
func (icc *IncConcave) Commit(items []int) float64 {
	added := icc.added(items)
	gain := 0.0
	if added > 0 {
		gain = icc.c.Phi(icc.count+added) - icc.c.Phi(icc.count)
	}
	for _, it := range items {
		icc.base.Add(it)
	}
	icc.count += added
	icc.epoch++
	return gain
}

// CommitDelta implements Incremental.
func (icc *IncConcave) CommitDelta(items []int) (Delta, float64) {
	if icc.delta == nil {
		icc.delta = &modDelta{}
	}
	d := icc.delta
	d.items = append(d.items[:0], items...)
	before := icc.count
	d.gain = icc.Commit(items)
	d.added = icc.count - before
	d.epoch = icc.epoch
	return d, d.gain
}

// ApplyDelta implements Incremental.
func (icc *IncConcave) ApplyDelta(d Delta) error {
	md, ok := d.(*modDelta)
	if !ok {
		return errWrongDelta("IncConcave", d)
	}
	apply, err := epochCheck("IncConcave", icc.epoch, md.epoch)
	if err != nil || !apply {
		return err
	}
	for _, it := range md.items {
		icc.base.Add(it)
	}
	icc.count += md.added
	icc.epoch++
	return nil
}

// Reset implements Incremental.
func (icc *IncConcave) Reset() {
	icc.base.Clear()
	icc.count = 0
	icc.epoch = 0
}

// Replica implements Incremental: a deep copy with fresh dedup stamps,
// sharing only φ.
func (icc *IncConcave) Replica() Incremental {
	return &IncConcave{
		c:     icc.c,
		base:  icc.base.Clone(),
		count: icc.count,
		epoch: icc.epoch,
		seen:  make([]int32, icc.c.n),
	}
}

// Interface conformance.
var (
	_ IncrementalProvider = (*Coverage)(nil)
	_ IncrementalProvider = (*FacilityLocation)(nil)
	_ IncrementalProvider = (*Modular)(nil)
	_ IncrementalProvider = (*ConcaveCardinality)(nil)
	_ Incremental         = (*countingIncremental)(nil)
	_ Incremental         = (*IncCoverage)(nil)
	_ Incremental         = (*IncFacilityLocation)(nil)
	_ Incremental         = (*IncModular)(nil)
	_ Incremental         = (*IncConcave)(nil)
)
