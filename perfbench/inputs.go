package main

// Seeded inputs. Everything here is a pure function of the seed; the
// program under test only ever sees the request bodies built from it.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/workload"
)

const (
	procs   = 2
	horizon = 96
)

var (
	affineSpec  = service.CostSpec{Model: "affine", Alpha: 4, Rate: 1}
	affineModel = power.Affine{Alpha: 4, Rate: 1}
)

func jobSpecs(jobs []sched.Job) []service.JobSpec {
	out := make([]service.JobSpec, len(jobs))
	for i, j := range jobs {
		out[i].Value = j.Value
		for _, s := range j.Allowed {
			out[i].Allowed = append(out[i].Allowed, service.SlotSpec{Proc: s.Proc, Time: s.Time})
		}
	}
	return out
}

// coldInput is one cold_solve request and the cost of the schedule
// planted in it, which upper-bounds the optimum of mode all.
type coldInput struct {
	body    []byte
	planted float64
}

// genCold builds n planted instances. Sizes cycle through 32, 36, ..., 64
// jobs and every fourth request is mode prize (z = half the total
// value), so every seed sends the same mix of sizes and modes and only
// the instances themselves differ. That keeps the latency tail a
// property of the solver, not of which sizes a seed happened to draw.
func genCold(seed int64, n int, tr *tracer) ([]coldInput, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]coldInput, n)
	for i := range out {
		sp := tr.start("workload.gen", -1, i)
		ins, planted := workload.PlantedSchedule(rng, workload.PlantedParams{
			Procs: procs, Horizon: horizon, IntervalsPerProc: 2, JobsPerInterval: 8 + i%9,
			ExtraSlotsPerJob: 2, Cost: affineModel,
		})
		spec := service.InstanceSpec{Procs: procs, Horizon: horizon, Cost: affineSpec, Jobs: jobSpecs(ins.Jobs)}
		if i%4 == 3 {
			total := 0.0
			for _, j := range ins.Jobs {
				total += j.Value
			}
			spec.Mode, spec.Z = "prize", total/2
		}
		body, err := json.Marshal(spec)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("encode cold instance %d: %w", i, err)
		}
		out[i] = coldInput{body: body, planted: planted}
	}
	return out, nil
}

// traceShape sizes a workload's arrival traces and names the
// generators it cycles through.
type traceShape struct {
	jobs, window int
	gens         []func(*rand.Rand, workload.TraceParams) *workload.ArrivalTrace
}

var (
	// replayShape is trace_replay's: a ±8-slot window gives 3–13 KB
	// prefix bodies, large enough that decoding and digesting dominate a
	// cache hit, while the warm-up lap that solves every prefix once
	// stays a few seconds.
	replayShape = traceShape{jobs: 32, window: 8, gens: []func(*rand.Rand, workload.TraceParams) *workload.ArrivalTrace{
		workload.PoissonBurstTrace, workload.DiurnalTrace, workload.FrontLoadedTrace,
	}}
	// sessionShape is session_churn's: trace_replay's traces without
	// the front-loaded generator, whose one large first arrival made
	// session cost so uneven that a run's average moved with the seed.
	// Solving, not fsync, dominates an operation, so the host's disk
	// noise does not swamp the figure; service.mutate_ms and
	// service.mutate_fsync_never_ms show the journal's share.
	sessionShape = traceShape{jobs: 32, window: 8, gens: []func(*rand.Rand, workload.TraceParams) *workload.ArrivalTrace{
		workload.PoissonBurstTrace, workload.DiurnalTrace,
	}}
)

// genArrivals builds n arrival traces, cycling through the shape's
// generators, each as its sequence of per-event job arrivals.
func genArrivals(seed int64, n int, shape traceShape, tr *tracer) [][][]service.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([][][]service.JobSpec, n)
	for i := range out {
		sp := tr.start("workload.gen", -1, i)
		t := shape.gens[i%len(shape.gens)](rng, workload.TraceParams{
			Procs: procs, Horizon: horizon, Jobs: shape.jobs, Window: shape.window,
		})
		for _, ev := range t.Events {
			out[i] = append(out[i], jobSpecs(ev.Jobs))
		}
		tr.end(sp)
	}
	return out
}

// prefixStep is trace_replay's re-solve cadence: its client re-solves
// each time prefixStep more jobs have arrived.
const prefixStep = 8

// prefixBodies is the /v1/schedule traffic of a set of traces: the
// instance of each trace's first prefixStep, 2·prefixStep, ... jobs in
// arrival order, the stream a rolling-horizon client re-solving every
// prefixStep arrivals sends. Cutting at job counts rather than at
// events gives every seed the same instance sizes, so neither the
// working set nor the warm-up lap that solves it depends on how bursty
// a seed's traces happen to be.
func prefixBodies(traces [][][]service.JobSpec) ([][]byte, error) {
	var out [][]byte
	for _, t := range traces {
		var jobs []service.JobSpec
		for _, arrival := range t {
			jobs = append(jobs, arrival...)
		}
		for k := prefixStep; k <= len(jobs); k += prefixStep {
			spec := service.InstanceSpec{Procs: procs, Horizon: horizon, Cost: affineSpec, Jobs: jobs[:k]}
			body, err := json.Marshal(spec)
			if err != nil {
				return nil, fmt.Errorf("encode trace prefix: %w", err)
			}
			out = append(out, body)
		}
	}
	return out, nil
}

// script is one rolling-horizon session: the instance it is created
// with, then one mutate per later arrival.
type script struct {
	create service.InstanceSpec
	body   []byte // create's request body
	steps  [][]service.MutationSpec
	muts   [][]byte // each step's MutateRequest body
}

// newScript turns a sequence of arrivals into a session script. The
// session starts with the horizon its first jobs need; each later
// arrival advances the horizon as far as its jobs reach and adds them.
// Every third mutate also removes the oldest job or blocks a slot no job
// of the whole script may use, alternately; both keep the instance
// feasible and both invalidate the session's model.
func newScript(arrivals [][]service.JobSpec) (*script, error) {
	used := map[service.SlotSpec]bool{}
	for _, a := range arrivals {
		for _, j := range a {
			for _, s := range j.Allowed {
				used[s] = true
			}
		}
	}
	var free []service.SlotSpec
	for t := 0; t < horizon; t++ {
		for p := 0; p < procs; p++ {
			if s := (service.SlotSpec{Proc: p, Time: t}); !used[s] {
				free = append(free, s)
			}
		}
	}
	sc := &script{create: service.InstanceSpec{
		Procs: procs, Horizon: reach(arrivals[0], 1), Cost: affineSpec,
		Jobs: append([]service.JobSpec(nil), arrivals[0]...),
	}}
	var err error
	if sc.body, err = json.Marshal(sc.create); err != nil {
		return nil, fmt.Errorf("encode session create: %w", err)
	}
	spec := cloneSpec(sc.create)
	for k, a := range arrivals[1:] {
		var muts []service.MutationSpec
		if h := reach(a, spec.Horizon); h > spec.Horizon {
			muts = append(muts, service.MutationSpec{Op: "advance_horizon", Horizon: h})
		}
		for i := range a {
			muts = append(muts, service.MutationSpec{Op: "add_job", Job: &a[i]})
		}
		if k%3 == 2 {
			if k%6 == 2 {
				muts = append(muts, service.MutationSpec{Op: "remove_job", Index: 0})
			} else if len(free) > 0 && free[0].Time < max(spec.Horizon, reach(a, 1)) {
				muts = append(muts, service.MutationSpec{Op: "block", Slot: &free[0]})
				free = free[1:]
			}
		}
		for _, m := range muts {
			applyMut(&spec, m)
		}
		body, err := json.Marshal(service.MutateRequest{Mutations: muts})
		if err != nil {
			return nil, fmt.Errorf("encode mutate: %w", err)
		}
		sc.steps = append(sc.steps, muts)
		sc.muts = append(sc.muts, body)
	}
	return sc, nil
}

// reach is the horizon the jobs need, at least h.
func reach(jobs []service.JobSpec, h int) int {
	for _, j := range jobs {
		for _, s := range j.Allowed {
			h = max(h, s.Time+1)
		}
	}
	return h
}

func cloneSpec(s service.InstanceSpec) service.InstanceSpec {
	s.Jobs = append([]service.JobSpec(nil), s.Jobs...)
	if s.Cost.Base != nil {
		s.Cost.Blocked = append([]service.SlotSpec(nil), s.Cost.Blocked...)
	}
	return s
}

// applyMut mirrors a mutation on the client's copy of the session's
// instance, the way the service folds it into its canonical spec.
func applyMut(spec *service.InstanceSpec, m service.MutationSpec) {
	switch m.Op {
	case "add_job":
		spec.Jobs = append(spec.Jobs, *m.Job)
	case "remove_job":
		spec.Jobs = append(spec.Jobs[:m.Index:m.Index], spec.Jobs[m.Index+1:]...)
	case "block":
		if spec.Cost.Model == "unavailable" {
			spec.Cost.Blocked = append(spec.Cost.Blocked, *m.Slot)
		} else {
			base := spec.Cost
			spec.Cost = service.CostSpec{Model: "unavailable", Base: &base, Blocked: []service.SlotSpec{*m.Slot}}
		}
	case "advance_horizon":
		spec.Horizon = m.Horizon
	}
}

// states calls visit with the instance after every step of the script
// (k = -1 for the instance it is created with).
func (sc *script) states(visit func(k int, spec service.InstanceSpec)) {
	spec := cloneSpec(sc.create)
	visit(-1, spec)
	for k, muts := range sc.steps {
		for _, m := range muts {
			applyMut(&spec, m)
		}
		visit(k, spec)
	}
}

// scriptsFrom builds one script per arrival sequence.
func scriptsFrom(arrivals [][][]service.JobSpec) ([]*script, error) {
	out := make([]*script, len(arrivals))
	for i, a := range arrivals {
		sc, err := newScript(a)
		if err != nil {
			return nil, err
		}
		out[i] = sc
	}
	return out, nil
}
