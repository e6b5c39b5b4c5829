// Fixture: incremental-oracle types (Gain+Commit+Replica method set) with
// shallow and deep Replica implementations. The Blocked type reconstructs
// the PR 4 session bug: the blocked-list [][]int shallow-copied into the
// replica, so a Block() on one session reached into every replica.
package oracle

// Blocked is the PR 4 reconstruction: a matching oracle holding
// per-machine blocked lists that Replica aliases instead of copying.
type Blocked struct {
	weights [][]float64 //powersched:clone-shared immutable problem data, never mutated after construction
	blocked [][]int
	chosen  map[int]bool
	total   float64
}

func (o *Blocked) Gain(j int) float64 { return o.weights[j][0] }
func (o *Blocked) Commit(j int)       { o.chosen[j] = true }

func (o *Blocked) Replica() *Blocked {
	return &Blocked{
		weights: o.weights,
		blocked: o.blocked, // want `Blocked.Replica\(\) shallow-copies reference-typed field "blocked"`
		chosen:  o.chosen,  // want `Blocked.Replica\(\) shallow-copies reference-typed field "chosen"`
		total:   o.total,
	}
}

// Deep does it right: reference fields rebuilt, value fields copied.
type Deep struct {
	blocked [][]int
	chosen  map[int]bool
	total   float64
}

func (o *Deep) Gain(j int) float64 { return float64(j) }
func (o *Deep) Commit(j int)       { o.chosen[j] = true }

func (o *Deep) Replica() *Deep {
	blocked := make([][]int, len(o.blocked))
	for i, b := range o.blocked {
		blocked[i] = append([]int(nil), b...)
	}
	chosen := make(map[int]bool, len(o.chosen))
	for k, v := range o.chosen {
		chosen[k] = v
	}
	return &Deep{blocked: blocked, chosen: chosen, total: o.total}
}

// Starred replicates via a whole-struct copy: the aliased map is flagged at
// the copy, the scratch slice is excused because the body rebuilds it,
// and the annotated problem pointer is excused by declaration.
type Starred struct {
	problem *[]float64 //powersched:clone-shared frozen instance data shared across replicas
	chosen  map[int]bool
	scratch []float64
	total   float64
}

func (o *Starred) Gain(j int) float64 { return (*o.problem)[j] }
func (o *Starred) Commit(j int)       { o.chosen[j] = true }

func (o *Starred) Replica() *Starred {
	c := *o // want `Starred.Replica\(\) shallow-copies reference-typed field "chosen"`
	c.scratch = make([]float64, len(o.scratch))
	return &c
}

// Assigned replicates field by field: the aliased assignment is flagged,
// the rebuilt one is not.
type Assigned struct {
	chosen  map[int]bool
	scratch []float64
}

func (o *Assigned) Gain(j int) float64 { return float64(len(o.scratch)) }
func (o *Assigned) Commit(j int)       { o.chosen[j] = true }

func (o *Assigned) Replica() *Assigned {
	c := new(Assigned)
	c.chosen = o.chosen // want `Assigned.Replica\(\) shallow-copies reference-typed field "chosen"`
	c.scratch = append([]float64(nil), o.scratch...)
	return c
}

// NotAnOracle has Replica but no Gain/Commit: out of scope, its shallow
// copy is some other contract's business.
type NotAnOracle struct {
	data []int
}

func (n *NotAnOracle) Replica() *NotAnOracle {
	return &NotAnOracle{data: n.data}
}

// Cow is a copy-on-write lineage: replicas share the annotated committed
// state (kept in step by the lineage's delta protocol) and own their
// probe scratch. Sharing the scratch as well would be the bug.
type Cow struct {
	st      *[]float64 //powersched:clone-shared copy-on-write committed state, synced by ApplyDelta
	scratch []float64
}

func (o *Cow) Gain(j int) float64 { return (*o.st)[j] }
func (o *Cow) Commit(j int)       { (*o.st)[j] = 0 }

func (o *Cow) Replica() *Cow {
	return &Cow{
		st:      o.st,
		scratch: o.scratch, // want `Cow.Replica\(\) shallow-copies reference-typed field "scratch"`
	}
}
