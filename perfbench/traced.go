package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/service"
)

// A traced run splits its time in three: the workload's traffic with a
// span per client call, the stateless replay of its inputs, and the
// session replay. The router hop is measured after them.

func answersOf(res []result) map[int][]byte {
	out := map[int][]byte{}
	for _, r := range res {
		if r.ok() {
			out[r.idx] = r.body
		}
	}
	return out
}

func tracedSend(tr *tracer, name string, send func(int) result) func(int) result {
	return func(i int) result {
		sp := tr.start(name, -1, i)
		defer tr.end(sp)
		return send(i)
	}
}

func (b *coldBench) trace(d time.Duration, tr *tracer) (*outcome, *layerRun, error) {
	lr := &layerRun{}
	before := countersOf(b.st)
	res, elapsed := runClosed(b.cfg.clients, d/3, d/3, 0, len(b.pool), tracedSend(tr, "http.schedule", b.send))
	lr.httpDeltas(before, countersOf(b.st), 0)
	o := &outcome{}
	o.addPhase(phaseOf("traced", res, elapsed))
	b.check(o, res)
	bodies := make([][]byte, len(b.pool))
	for i, in := range b.pool {
		bodies[i] = in.body
	}
	if err := replayStateless(tr, lr, bodies, answersOf(res), d/3); err != nil {
		o.mismatch("%v", err)
	}
	scripts, err := coldScripts(bodies[:16])
	if err != nil {
		return nil, nil, err
	}
	if err := replaySessions(tr, lr, scripts, nil, d/3, b.cfg.workdir); err != nil {
		o.mismatch("%v", err)
	}
	// cold_solve has no router; the hop is measured on a fresh cluster.
	st, err := newCluster("")
	if err != nil {
		return nil, nil, err
	}
	defer st.close()
	return o, lr, measureHop(tr, lr, st, b.c, bodies)
}

// coldScripts turns planted instances into session scripts whose jobs
// arrive eight at a time in index order, so the session layers are
// measured on cold_solve's own instances.
func coldScripts(bodies [][]byte) ([]*script, error) {
	var arrs [][][]service.JobSpec
	for _, body := range bodies {
		var spec service.InstanceSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		var a [][]service.JobSpec
		for k := 0; k < len(spec.Jobs); k += 8 {
			a = append(a, spec.Jobs[k:min(k+8, len(spec.Jobs))])
		}
		arrs = append(arrs, a)
	}
	return scriptsFrom(arrs)
}

func (b *traceBench) trace(d time.Duration, tr *tracer) (*outcome, *layerRun, error) {
	lr := &layerRun{}
	before := countersOf(b.st)
	res, elapsed := runClosed(b.cfg.clients, d/3, d/3, 0, math.MaxInt, tracedSend(tr, "http.schedule", b.send))
	lr.httpDeltas(before, countersOf(b.st), 0)
	o := &outcome{}
	o.addPhase(phaseOf("traced", res, elapsed))
	checkStateless(o, b.bodies, res)
	// Replay the prefixes shuffled, so a short replay samples every
	// trace and every prefix length rather than the first trace's.
	answers := answersOf(res)
	bodies := make([][]byte, len(b.bodies))
	shuffled := map[int][]byte{}
	for k, i := range rand.New(rand.NewSource(b.cfg.seed)).Perm(len(b.bodies)) {
		bodies[k] = b.bodies[i]
		if a, ok := answers[i]; ok {
			shuffled[k] = a
		}
	}
	if err := replayStateless(tr, lr, bodies, shuffled, d/3); err != nil {
		o.mismatch("%v", err)
	}
	scripts, err := scriptsFrom(b.traces)
	if err != nil {
		return nil, nil, err
	}
	if err := replaySessions(tr, lr, scripts, nil, d/3, b.cfg.workdir); err != nil {
		o.mismatch("%v", err)
	}
	return o, lr, measureHop(tr, lr, b.st, b.c, b.bodies)
}

func (b *sessionBench) trace(d time.Duration, tr *tracer) (*outcome, *layerRun, error) {
	lr := &layerRun{}
	before := countersOf(b.st)
	ops, runs, elapsed := b.churn(d/3, tr)
	mutates := 0
	finals := map[int][]byte{}
	for _, run := range runs {
		for k := 0; k+1 < len(run.digests); k++ {
			mutates += len(b.scripts[run.script].steps[k])
		}
		if run.done {
			finals[run.script] = run.final
		}
	}
	lr.httpDeltas(before, countersOf(b.st), mutates)
	o := &outcome{}
	o.addPhase(phaseOf("traced", ops, elapsed))
	b.check(o, runs)
	// The stateless replay solves each script's final instance; a
	// finished session's final solve must equal it.
	var bodies [][]byte
	for _, sc := range b.scripts {
		var final service.InstanceSpec
		sc.states(func(_ int, spec service.InstanceSpec) { final = cloneSpec(spec) })
		body, err := json.Marshal(final)
		if err != nil {
			return nil, nil, fmt.Errorf("encode final instance: %w", err)
		}
		bodies = append(bodies, body)
	}
	if err := replayStateless(tr, lr, bodies, finals, d/3); err != nil {
		o.mismatch("%v", err)
	}
	if err := replaySessions(tr, lr, b.scripts, finals, d/3, b.cfg.workdir); err != nil {
		o.mismatch("%v", err)
	}
	return o, lr, measureHop(tr, lr, b.st, b.c, bodies)
}
