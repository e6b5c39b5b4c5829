package main

// The traced run: the workload's traffic once more with a span around
// every client call, then the same inputs replayed through each layer's
// public functions with a span around every call. Spans are recorded by
// the benchmark around the calls; nothing inside the program is
// instrumented.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/submodular"
)

// probeStride thins the replayed greedy probes: every round probes every
// probeStride-th candidate, enough for a per-call median without
// storing a span for each of the greedy's thousands of probes.
const probeStride = 8

// layerRun holds what the traced run measured besides span durations.
type layerRun struct {
	hop      []float64 // ms, router round trip minus direct round trip
	overhead float64   // traced / untraced replay time − 1

	cacheHitShare  float64
	fsyncsPerMut   float64
	errors         float64
	retries, sheds float64
}

// counters are what a traced HTTP phase reads from the services'
// /stats and Router.Stats.
type counters struct {
	svc            service.Stats
	retries, sheds uint64
}

func countersOf(st *stack) counters {
	rs := st.routerStats()
	return counters{svc: st.serviceStats(), retries: rs.Retries, sheds: rs.Sheds + rs.BudgetExhausted}
}

// httpDeltas records what a traced HTTP phase moved between two counter
// reads. mutations is the number its acked mutate requests carried.
func (lr *layerRun) httpDeltas(before, after counters, mutations int) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	hits := d(after.svc.CacheHits, before.svc.CacheHits)
	if n := hits + d(after.svc.CacheMisses, before.svc.CacheMisses); n > 0 {
		lr.cacheHitShare = hits / n
	}
	lr.errors = d(after.svc.Errors, before.svc.Errors)
	lr.retries = d(after.retries, before.retries)
	lr.sheds = d(after.sheds, before.sheds)
	if mutations > 0 {
		lr.fsyncsPerMut = d(after.svc.JournalFsyncs, before.svc.JournalFsyncs) / float64(mutations)
	}
}

// replayer runs stateless requests through the layers on its own
// default-Config service, so its result cache starts empty.
type replayer struct {
	tr  *tracer
	svc *service.Service
	h   http.Handler
}

func newReplayer(tr *tracer) *replayer {
	svc := service.New(service.Config{})
	return &replayer{tr: tr, svc: svc, h: service.NewHTTPHandler(svc)}
}

func (rp *replayer) close() { closeService(rp.svc) }

// request replays one /v1/schedule body. answer, when set, is the HTTP
// answer the same body got; the replayed schedule must equal it.
func (rp *replayer) request(id int, body, answer []byte) error {
	tr := rp.tr
	root := tr.start("replay.request", -1, id)
	defer tr.end(root)
	sp := tr.start("service.decode", root, id)
	req, err := service.DecodeRequest(body)
	tr.end(sp)
	if err != nil {
		return err
	}
	var spec service.InstanceSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return err
	}
	sp = tr.start("service.digest", root, id)
	service.InstanceDigest(spec)
	tr.end(sp)

	sp = tr.start("sched.model_build", root, id)
	model, err := sched.NewModel(req.Instance)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start("sched.candidates", root, id)
	ivs, err := model.Candidates(req.Opts.Policy)
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.count("sched.candidates", float64(len(ivs)))
	sp = tr.start("sched.solve", root, id)
	sol, err := solveOn(model, req)
	tr.end(sp)
	if err != nil {
		return err
	}
	if answer != nil {
		got, err := decodeAnswer(answer, len(req.Instance.Jobs))
		if err == nil {
			err = got.SameAs(sol)
		}
		if err != nil {
			return fmt.Errorf("replay differs from the HTTP answer: %w", err)
		}
	}
	sp = tr.start("service.encode", root, id)
	enc := service.EncodeSchedule(sol)
	_, err = json.Marshal(service.ScheduleResponse{Schedule: &enc})
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.start("service.do", root, id)
	res := rp.svc.Do(context.Background(), req)
	tr.end(sp)
	if res.Err != nil {
		return res.Err
	}
	// The handler sees the body second, so it times the cache-hit path:
	// decode, digest, lookup, encode.
	sp = tr.start("service.handler", root, id)
	rec := httptest.NewRecorder()
	rp.h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/schedule", bytes.NewReader(body)))
	tr.end(sp)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.Bytes())
	}
	if req.Mode == service.ModeAll {
		return rp.greedy(id, root, model, ivs, sol)
	}
	return nil
}

func solveOn(model *sched.Model, req service.Request) (*sched.Schedule, error) {
	switch req.Mode {
	case service.ModePrize:
		return model.PrizeCollecting(req.Z, req.Opts)
	case service.ModePrizeExact:
		return model.PrizeCollectingExact(req.Z, req.Opts)
	}
	return model.ScheduleAll(req.Opts)
}

// greedy assembles Theorem 2.2.1's budget problem from the model's
// candidates and replays it through budget, bipartite and submodular.
// Greedy and Stepwise must pick the intervals ScheduleAll picked.
func (rp *replayer) greedy(id, root int, model *sched.Model, ivs []sched.Interval, sol *sched.Schedule) error {
	tr := rp.tr
	n := len(model.Ins.Jobs)
	var subs []budget.Subset
	var subIv []sched.Interval
	for _, iv := range ivs {
		c := model.Ins.Cost.Cost(iv.Proc, iv.Start, iv.End)
		items := model.IntervalItems(iv)
		if math.IsInf(c, 1) || math.IsNaN(c) || len(items) == 0 {
			continue
		}
		subs = append(subs, budget.Subset{Elems: items, Cost: c})
		subIv = append(subIv, iv)
	}
	prob := budget.Problem{F: model.MatchingUtility(), Subsets: subs, Threshold: float64(n)}
	opts := budget.Options{Eps: 1 / float64(n+1)}

	sp := tr.start("bipartite.hall", root, id)
	cover := bitset.New(len(model.Slots))
	for _, s := range subs {
		for _, x := range s.Elems {
			cover.Add(x)
		}
	}
	matched := bipartite.MaxMatchingSize(model.G, cover)
	tr.end(sp)
	if matched != n {
		return fmt.Errorf("hall check matched %d of %d jobs", matched, n)
	}

	sp = tr.start("budget.greedy", root, id)
	res, err := budget.Greedy(prob, opts)
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.count("budget.evals", float64(res.Evals))
	tr.count("budget.picks", float64(len(res.Chosen)))
	if len(res.Chosen) != len(sol.Intervals) {
		return fmt.Errorf("budget replay picked %d intervals, ScheduleAll %d", len(res.Chosen), len(sol.Intervals))
	}
	for k, c := range res.Chosen {
		if subIv[c] != sol.Intervals[k] {
			return fmt.Errorf("budget replay pick %d is %v, ScheduleAll picked %v", k, subIv[c], sol.Intervals[k])
		}
	}

	sw, err := budget.NewStepwise(prob, opts, nil)
	if err != nil {
		return err
	}
	for k := 0; ; k++ {
		sp = tr.start("budget.step", root, id)
		st, ok, err := sw.Step()
		tr.end(sp)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if k >= len(res.Chosen) || st.Subset != res.Chosen[k] {
			return fmt.Errorf("stepwise pick %d differs from the greedy's", k)
		}
	}

	m := bipartite.NewMatcher(model.G)
	inc, ok := submodular.AsIncremental(prob.F)
	if !ok {
		return fmt.Errorf("matching utility has no incremental oracle")
	}
	for round, pick := range res.Chosen {
		for c := round % probeStride; c < len(subs); c += probeStride {
			sp = tr.start("bipartite.gain", root, id)
			m.GainOfSet(subs[c].Elems)
			tr.end(sp)
			sp = tr.start("submodular.gain", root, id)
			inc.Gain(subs[c].Elems)
			tr.end(sp)
		}
		sp = tr.start("bipartite.enable", root, id)
		m.EnableSet(subs[pick].Elems)
		tr.end(sp)
		inc.Commit(subs[pick].Elems)
	}
	if m.Size() != n {
		return fmt.Errorf("matcher replay matched %d of %d jobs", m.Size(), n)
	}
	return nil
}

// replayStateless replays bodies in order for about d (at least
// overheadN of them). The first overheadN also run untraced, twice, each
// time on a fresh service: the first pass warms the process, the second
// is the reference the traced pass is compared with for the tracing
// overhead.
func replayStateless(tr *tracer, lr *layerRun, bodies [][]byte, answers map[int][]byte, d time.Duration) error {
	const overheadN = 4
	m := min(overheadN, len(bodies))
	var untraced time.Duration
	for pass := 0; pass < 2; pass++ {
		plain := newReplayer(nil)
		t0 := time.Now()
		for i := 0; i < m; i++ {
			if err := plain.request(i, bodies[i], nil); err != nil {
				plain.close()
				return err
			}
		}
		untraced = time.Since(t0)
		plain.close()
	}

	rp := newReplayer(tr)
	defer rp.close()
	start := time.Now()
	for i := 0; i < len(bodies) && (i < m || time.Since(start) < d); i++ {
		if err := rp.request(i, bodies[i], answers[i]); err != nil {
			return fmt.Errorf("replay of body %d: %w", i, err)
		}
		if i == m-1 {
			lr.overhead = time.Since(start).Seconds()/untraced.Seconds() - 1
		}
	}
	return nil
}

// replaySessions plays scripts for about d (at least one) on two
// durable default-Config services, one with fsync always and one with
// fsync never, and on a bare sched.Session. finals, when set, holds
// the HTTP final solve of scripts the traced HTTP phase finished.
func replaySessions(tr *tracer, lr *layerRun, scripts []*script, finals map[int][]byte, d time.Duration, workdir string) error {
	open := func(fsync string) (*service.Service, string, error) {
		dir, err := os.MkdirTemp(workdir, "replay-")
		if err != nil {
			return nil, "", err
		}
		svc, err := service.Open(service.Config{StateDir: dir, Fsync: fsync})
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", err
		}
		return svc, dir, nil
	}
	always, dirA, err := open("")
	if err != nil {
		return err
	}
	defer func() { closeService(always); os.RemoveAll(dirA) }()
	never, dirN, err := open(service.FsyncNever)
	if err != nil {
		return err
	}
	defer func() { closeService(never); os.RemoveAll(dirN) }()

	var fsyncs, mutates float64
	start := time.Now()
	for i, sc := range scripts {
		if i > 0 && time.Since(start) >= d {
			break
		}
		if err := replayScript(tr, i, sc, always, never, finals[i], &fsyncs, &mutates); err != nil {
			return fmt.Errorf("session replay of script %d: %w", i, err)
		}
	}
	if lr.fsyncsPerMut == 0 && mutates > 0 {
		lr.fsyncsPerMut = fsyncs / mutates
	}
	return nil
}

func replayScript(tr *tracer, id int, sc *script, always, never *service.Service, final []byte, fsyncs, mutates *float64) error {
	root := tr.start("replay.session", -1, id)
	defer tr.end(root)
	sidA, _, err := always.CreateSession(sc.create)
	if err != nil {
		return err
	}
	defer always.DropSession(sidA)
	sidN, _, err := never.CreateSession(sc.create)
	if err != nil {
		return err
	}
	defer never.DropSession(sidN)
	req, err := service.BuildRequest(sc.create)
	if err != nil {
		return err
	}
	sess, err := sched.NewSession(req.Instance, req.Opts)
	if err != nil {
		return err
	}
	var last *sched.Schedule
	solve := func() error {
		sp := tr.start("service.session_solve", root, id)
		res := always.SolveSession(context.Background(), sidA)
		tr.end(sp)
		if res.Err != nil {
			return res.Err
		}
		sp = tr.start("sched.session_solve", root, id)
		got, err := sess.Solve()
		tr.end(sp)
		if err != nil {
			return err
		}
		tr.count("sched.session_evals", float64(sess.LastEvals()))
		last = got
		return got.SameAs(res.Schedule)
	}
	if err := solve(); err != nil {
		return err
	}
	spec := cloneSpec(sc.create)
	for _, muts := range sc.steps {
		f0 := always.Stats().JournalFsyncs
		sp := tr.start("service.mutate", root, id)
		digest, err := always.MutateSession(sidA, muts)
		tr.end(sp)
		if err != nil {
			return err
		}
		*fsyncs += float64(always.Stats().JournalFsyncs - f0)
		*mutates += float64(len(muts))
		sp = tr.start("service.mutate_fsync_never", root, id)
		_, err = never.MutateSession(sidN, muts)
		tr.end(sp)
		if err != nil {
			return err
		}
		for _, m := range muts {
			applyMut(&spec, m)
			if err := applySched(sess, m); err != nil {
				return err
			}
		}
		if want := service.InstanceDigest(spec); digest != want {
			return fmt.Errorf("service digest %s, client copy %s", digest, want)
		}
		if err := solve(); err != nil {
			return err
		}
	}
	if final != nil {
		got, err := decodeAnswer(final, len(spec.Jobs))
		if err == nil {
			err = got.SameAs(last)
		}
		if err != nil {
			return fmt.Errorf("replay differs from the HTTP final solve: %w", err)
		}
	}
	return nil
}

// applySched applies a wire mutation to a bare sched.Session.
func applySched(s *sched.Session, m service.MutationSpec) error {
	switch m.Op {
	case "add_job":
		job := sched.Job{Value: m.Job.Value}
		if job.Value == 0 {
			job.Value = 1
		}
		for _, sl := range m.Job.Allowed {
			job.Allowed = append(job.Allowed, sched.SlotKey{Proc: sl.Proc, Time: sl.Time})
		}
		_, err := s.AddJob(job)
		return err
	case "remove_job":
		return s.RemoveJob(m.Index)
	case "block":
		return s.SetUnavailable(m.Slot.Proc, m.Slot.Time)
	case "advance_horizon":
		return s.AdvanceHorizon(m.Horizon)
	}
	return fmt.Errorf("unknown op %q", m.Op)
}

// measureHop times the same bodies through the router and directly on
// a backend, both answering from a warm cache.
func measureHop(tr *tracer, lr *layerRun, st *stack, c *http.Client, bodies [][]byte) error {
	bodies = bodies[:min(8, len(bodies))]
	for _, body := range bodies {
		for _, url := range []string{st.url, st.direct} {
			if _, err := mustOK(call(c, "POST", url+"/v1/schedule", body)); err != nil {
				return fmt.Errorf("hop warm-up: %w", err)
			}
		}
	}
	for rep := 0; rep < 25; rep++ {
		for i, body := range bodies {
			var rt [2]time.Duration
			for k, url := range []string{st.url, st.direct} {
				sp := tr.start([]string{"cluster.router_rt", "cluster.direct_rt"}[k], -1, i)
				t0 := time.Now()
				_, err := mustOK(call(c, "POST", url+"/v1/schedule", body))
				rt[k] = time.Since(t0)
				tr.end(sp)
				if err != nil {
					return err
				}
			}
			lr.hop = append(lr.hop, ms(rt[0]-rt[1]))
		}
	}
	return nil
}
