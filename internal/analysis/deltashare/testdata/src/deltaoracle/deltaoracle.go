// Fixture: delta-oracle types (CommitDelta+ApplyDelta method set) whose
// CommitDelta bodies leak — or correctly copy — receiver scratch into
// the returned delta. The Leaky type reconstructs the shared-mutable-delta
// bug: the oracle's probe scratch stored into the delta buffer, so the
// next probe on the committer rewrites the delta under every replica
// still applying it.
package deltaoracle

type delta struct {
	epoch uint64
	items []int
	mask  []bool
}

func (d *delta) DeltaEpoch() uint64 { return d.epoch }

// Leaky aliases its live scratch into the delta.
type Leaky struct {
	scratch []bool
	pending map[int]bool
	d       *delta
	epoch   uint64
}

func (o *Leaky) Gain(items []int) float64 { return float64(len(items)) }
func (o *Leaky) Commit(items []int) float64 {
	o.epoch++
	return float64(len(items))
}

func (o *Leaky) CommitDelta(items []int) (*delta, float64) {
	if o.d == nil {
		o.d = &delta{}
	}
	d := o.d // buffer reuse: a plain local copy of the delta pointer is fine
	d.items = append(d.items[:0], items...)
	d.mask = o.scratch // want `Leaky.CommitDelta\(\) stores reference-typed receiver field "scratch"`
	o.epoch++
	d.epoch = o.epoch
	return d, float64(len(items))
}

func (o *Leaky) ApplyDelta(d *delta) error { o.epoch = d.epoch; return nil }

// LitLeaky plants the alias through a composite literal instead.
type LitLeaky struct {
	scratch []bool
	epoch   uint64
}

func (o *LitLeaky) Gain(items []int) float64   { return 0 }
func (o *LitLeaky) Commit(items []int) float64 { return 0 }

func (o *LitLeaky) CommitDelta(items []int) (*delta, float64) {
	o.epoch++
	return &delta{
		epoch: o.epoch,
		items: items,
		mask:  o.scratch, // want `LitLeaky.CommitDelta\(\) stores reference-typed receiver field "scratch"`
	}, 0
}

func (o *LitLeaky) ApplyDelta(d *delta) error { return nil }

// Clean deep-copies through calls — the sanctioned pattern — and shares
// only an annotated immutable field.
type Clean struct {
	weights []float64 //powersched:delta-shared immutable problem data, never mutated after construction
	scratch []bool
	d       *delta
	epoch   uint64
}

type weightedDelta struct {
	delta
	weights []float64
}

func (o *Clean) Gain(items []int) float64   { return o.weights[0] }
func (o *Clean) Commit(items []int) float64 { return 0 }

func (o *Clean) CommitDelta(items []int) (*weightedDelta, float64) {
	d := &weightedDelta{weights: o.weights} // annotated: immutable share is fine
	d.items = append(d.items[:0], items...)
	d.mask = append(d.mask[:0], o.scratch...) // copied through a call, not aliased
	o.epoch++
	d.epoch = o.epoch
	return d, 0
}

func (o *Clean) ApplyDelta(d *weightedDelta) error { return nil }

// NotADeltaOracle stores scratch into things all it likes: without
// ApplyDelta nothing it returns is a replayable delta.
type NotADeltaOracle struct {
	scratch []bool
}

func (n *NotADeltaOracle) CommitDelta(items []int) *delta {
	return &delta{mask: n.scratch}
}
