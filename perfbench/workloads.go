package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/service"
)

const (
	// coldMinOps is the fewest cold_solve answers a run takes: p99 needs
	// ten samples beyond it. A run that has not reached it when its time
	// is up keeps going, up to three times its length.
	coldMinOps = 1000
	// traceCount traces make trace_replay's working set: 24 traces of 32
	// jobs, four prefixes each, 96 instances, well inside the default
	// 256-entry result cache. Eight traces of each generator, so the
	// set's cost averages over many traces and hardly moves with the seed.
	traceCount = 24
)

// outcome is a timed phase's record: what was sent, what came back, and
// what the checks found.
type outcome struct {
	phases    []phase
	lat       []time.Duration // latency samples behind p50_ms and p99_ms
	tput      float64         // answers OK per second, closed loop
	attempted int
	failed    int // failed or refused operations
	wrong     int // answers that failed a check
	// costRatio is Σ schedule cost / Σ planted cost on cold_solve. The
	// other workloads check every answer equal to a reference solve, so
	// theirs is 1 in any run that counts.
	costRatio float64
	notes     []string
}

func (o *outcome) addPhase(p phase) {
	o.phases = append(o.phases, p)
	o.attempted += p.Sent
	o.failed += p.Failed
}

func (o *outcome) mismatch(format string, args ...any) {
	o.wrong++
	if o.wrong <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: "+format+"\n", args...)
	}
}

// bench is one workload with its stack running.
type bench interface {
	// run drives the untimed-checked traffic for d and checks every answer.
	run(d time.Duration) (*outcome, error)
	// trace drives the same traffic traced, then replays the inputs
	// through each layer's functions, recording spans into tr.
	trace(d time.Duration, tr *tracer) (*outcome, *layerRun, error)
	close()
}

// config is what a run is given on the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	clients  int
	openRPS  float64
	workdir  string
}

func setup(cfg config) (bench, error) {
	switch cfg.workload {
	case "cold_solve":
		return setupCold(cfg)
	case "trace_replay":
		return setupTrace(cfg)
	case "session_churn":
		return setupSession(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want cold_solve, trace_replay or session_churn)", cfg.workload)
}

// ---- cold_solve: distinct planted instances, one service, closed loop.

type coldBench struct {
	cfg  config
	pool []coldInput
	st   *stack
	c    *http.Client
}

func setupCold(cfg config) (bench, error) {
	// The pool is sized for 100 answers/s, three times today's rate on
	// two CPUs; a faster program ends the phase when the pool runs out
	// instead of repeating an instance.
	n := max(2*coldMinOps, 100*cfg.seconds)
	const warm = 4
	pool, err := genCold(cfg.seed, n+warm, nil)
	if err != nil {
		return nil, err
	}
	st, err := newSingle()
	if err != nil {
		return nil, err
	}
	b := &coldBench{cfg: cfg, pool: pool[:n], st: st, c: newClient(cfg.clients)}
	for _, in := range pool[n:] {
		if _, err := mustOK(call(b.c, "POST", st.url+"/v1/schedule", in.body)); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

func (b *coldBench) close() { b.st.close() }

func (b *coldBench) send(i int) result {
	return timed(b.c, "POST", b.st.url+"/v1/schedule", b.pool[i].body, i)
}

func (b *coldBench) run(d time.Duration) (*outcome, error) {
	res, elapsed := runClosed(b.cfg.clients, d, 3*d, coldMinOps, len(b.pool), b.send)
	o := &outcome{}
	o.addPhase(phaseOf("closed", res, elapsed))
	o.tput = throughput(res)
	o.lat = latencies(res)
	b.check(o, res)
	return o, nil
}

// check validates every answer against its instance; cost_ratio sums the
// first coldMinOps inputs, a set fixed by the seed alone.
func (b *coldBench) check(o *outcome, res []result) {
	var cost, planted float64
	sort.Slice(res, func(x, y int) bool { return res[x].idx < res[y].idx })
	for _, r := range res {
		if !r.ok() {
			continue
		}
		s, err := checkAnswer(b.pool[r.idx].body, r.body)
		if err != nil {
			o.mismatch("cold_solve input %d: %v", r.idx, err)
			continue
		}
		if r.idx < coldMinOps {
			cost += s.Cost
			planted += b.pool[r.idx].planted
		}
	}
	o.costRatio = cost / planted
}

// checkAnswer decodes a /v1/schedule answer and validates it against the
// instance in the request body.
func checkAnswer(reqBody, answer []byte) (*sched.Schedule, error) {
	req, err := service.DecodeRequest(reqBody)
	if err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	s, err := decodeAnswer(answer, len(req.Instance.Jobs))
	if err != nil {
		return nil, err
	}
	if err := s.Validate(req.Instance); err != nil {
		return nil, err
	}
	if hw := s.HardwareCost(req.Instance); math.Abs(s.Cost-hw) > 1e-6*math.Max(1, s.Cost) {
		return nil, fmt.Errorf("cost %g, intervals cost %g", s.Cost, hw)
	}
	return s, nil
}

// decodeAnswer turns a ScheduleResponse back into a sched.Schedule.
func decodeAnswer(answer []byte, jobs int) (*sched.Schedule, error) {
	var resp service.ScheduleResponse
	if err := json.Unmarshal(answer, &resp); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	if resp.Schedule == nil {
		return nil, fmt.Errorf("answer without schedule: %s", resp.Error)
	}
	sp := resp.Schedule
	s := &sched.Schedule{Cost: sp.Cost, Value: sp.Value, Scheduled: sp.Scheduled, Assignment: make([]sched.SlotKey, jobs)}
	for _, iv := range sp.Intervals {
		s.Intervals = append(s.Intervals, sched.Interval{Proc: iv.Proc, Start: iv.Start, End: iv.End})
	}
	for j := range s.Assignment {
		s.Assignment[j] = sched.Unassigned
	}
	if len(sp.Jobs) != jobs {
		return nil, fmt.Errorf("answer has %d jobs, instance %d", len(sp.Jobs), jobs)
	}
	for _, jr := range sp.Jobs {
		if jr.Job < 0 || jr.Job >= jobs {
			return nil, fmt.Errorf("answer names job %d of %d", jr.Job, jobs)
		}
		if jr.Scheduled {
			s.Assignment[jr.Job] = sched.SlotKey{Proc: jr.Proc, Time: jr.Time}
		}
	}
	return s, nil
}

// ---- trace_replay: trace prefixes through a router, open then closed loop.

type traceBench struct {
	cfg    config
	traces [][][]service.JobSpec
	bodies [][]byte
	st     *stack
	c      *http.Client

	// seen interns answers: the same body is answered with the same
	// bytes thousands of times, and keeping one copy holds the
	// benchmark's own memory flat however fast the program answers.
	mu   sync.Mutex
	seen map[string][]byte
}

func setupTrace(cfg config) (bench, error) {
	traces := genArrivals(cfg.seed, traceCount, replayShape, nil)
	bodies, err := prefixBodies(traces)
	if err != nil {
		return nil, err
	}
	st, err := newCluster("")
	if err != nil {
		return nil, err
	}
	b := &traceBench{cfg: cfg, traces: traces, bodies: bodies, st: st, c: newClient(cfg.clients), seen: map[string][]byte{}}
	// The first lap fills the result caches, as a long-running server
	// would already have them.
	res, _ := runClosed(cfg.clients, time.Hour, time.Hour, 0, len(bodies), b.send)
	for _, r := range res {
		if _, err := mustOK(r.status, r.body, r.err); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up lap: %w", err)
		}
	}
	return b, nil
}

func (b *traceBench) close() { b.st.close() }

func (b *traceBench) send(i int) result {
	r := timed(b.c, "POST", b.st.url+"/v1/schedule", b.bodies[i%len(b.bodies)], i%len(b.bodies))
	b.mu.Lock()
	if c, ok := b.seen[string(r.body)]; ok {
		r.body = c
	} else {
		b.seen[string(r.body)] = r.body
	}
	b.mu.Unlock()
	return r
}

func (b *traceBench) run(d time.Duration) (*outcome, error) {
	o := &outcome{}
	t0 := time.Now()
	openRes, samples := runOpen(b.cfg.clients, b.cfg.openRPS, d/2, b.send)
	o.addPhase(phaseOf("open", openRes, time.Since(t0)))
	lat, lateP99, lateMax, err := openLoopReport(samples)
	o.notes = append(o.notes, fmt.Sprintf("open loop: %.0f req/s offered, generator lateness p99 %.3f ms, max %.3f ms",
		b.cfg.openRPS, ms(lateP99), ms(lateMax)))
	if err != nil {
		return nil, fmt.Errorf("open loop invalid: %w", err)
	}
	// The open loop's due-time percentiles are reported but not gated:
	// on a two-CPU VM an idle-then-woken connection or a drift in host
	// speed moved its p99 by 2–4× from run to run. p50_ms and p99_ms come
	// from the closed loop, whose clients never idle.
	for _, q := range []struct {
		name string
		p    float64
	}{{"open_p50_ms", 0.50}, {"open_p99_ms", 0.99}} {
		if v, _, err := windowed(lat, q.p); err == nil {
			o.notes = append(o.notes, fmt.Sprintf("%-16s %12.4f ms     (due-time latency, %d samples)", q.name, ms(v), len(lat)))
		}
	}
	closedRes, elapsed := runClosed(b.cfg.clients, d/2, d/2, 0, math.MaxInt, b.send)
	o.addPhase(phaseOf("closed", closedRes, elapsed))
	o.tput = throughput(closedRes)
	o.lat = latencies(closedRes)
	checkStateless(o, b.bodies, append(openRes, closedRes...))
	o.costRatio = 1 // every answer checked equal to the reference solver's
	return o, nil
}

// checkStateless validates every answer and compares it with the
// sequential reference solver (service.Solve) on the same body. Equal
// answers to one body are checked once.
func checkStateless(o *outcome, bodies [][]byte, res []result) {
	refs := map[int]*sched.Schedule{}
	seen := map[int]map[string]bool{} // answer bytes already checked
	for _, r := range res {
		if !r.ok() {
			continue
		}
		want, ok := refs[r.idx]
		if !ok {
			req, err := service.DecodeRequest(bodies[r.idx])
			if err == nil {
				want, err = service.Solve(req)
			}
			if err != nil {
				o.mismatch("reference solve of body %d: %v", r.idx, err)
				continue
			}
			refs[r.idx] = want
			seen[r.idx] = map[string]bool{}
		}
		if seen[r.idx][string(r.body)] {
			continue
		}
		s, err := checkAnswer(bodies[r.idx], r.body)
		if err == nil {
			err = s.SameAs(want)
		}
		if err != nil {
			o.mismatch("body %d: %v", r.idx, err)
			continue
		}
		seen[r.idx][string(r.body)] = true
	}
}

// ---- session_churn: rolling-horizon sessions through a router over
// durable shared storage, closed loop.

type sessionBench struct {
	cfg     config
	scripts []*script
	st      *stack
	c       *http.Client
	dir     string
}

// sessionRun is what one client saw of one script.
type sessionRun struct {
	script  int
	digests []string // digest acked by create, then by each mutate
	final   []byte   // the last solve's answer
	done    bool     // every step ran and answered OK, delete included
}

func setupSession(cfg config) (bench, error) {
	// Sized for thirty scripts per second, twice today's rate on two
	// CPUs; past that scripts repeat, and their solves hit the cache.
	n := 30 * cfg.seconds
	scripts, err := scriptsFrom(genArrivals(cfg.seed, n+1, sessionShape, nil))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "state-")
	if err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	st, err := newCluster(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b := &sessionBench{cfg: cfg, scripts: scripts[:n], st: st, c: newClient(cfg.clients), dir: dir}
	// The warm-up session plays its script's first warmOps operations
	// only, so its cost, fsyncs included, does not depend on how many
	// arrivals the seed gave that trace.
	const warmOps = 6
	calls := 0
	ops, _ := b.play(scripts[n], n, nil, func() bool { calls++; return calls >= warmOps })
	for _, op := range ops {
		if !op.ok() {
			b.close()
			return nil, fmt.Errorf("warm-up session failed: status %d, %v", op.status, op.err)
		}
	}
	return b, nil
}

func (b *sessionBench) close() {
	b.st.close()
	os.RemoveAll(b.dir)
}

// play runs one script. Each operation is one arrival as the client
// handles it: the create or mutate, then the solve that follows; the
// closing delete belongs to the last operation. It stops early, still
// deleting, once stop reports true. Every HTTP call is a span under tr
// when tr is set.
func (b *sessionBench) play(sc *script, idx int, tr *tracer, stop func() bool) ([]result, sessionRun) {
	run := sessionRun{script: idx}
	var ops []result
	do := func(op *result, name, method, path string, body []byte) bool {
		sp := tr.start("http."+name, -1, idx)
		r := timed(b.c, method, b.st.url+path, body, idx)
		tr.end(sp)
		if op.at.IsZero() {
			op.at = r.at
		}
		op.lat += r.lat
		op.status, op.body, op.err = r.status, r.body, r.err
		return r.ok()
	}
	var path string
	for k := -1; k < len(sc.steps); k++ {
		if k >= 0 && stop() {
			break
		}
		op := result{idx: idx}
		var ack service.SessionResponse
		var ok bool
		if k < 0 {
			ok = do(&op, "session_create", "POST", "/v1/session", sc.body)
		} else {
			ok = do(&op, "session_mutate", "POST", path+"/mutate", sc.muts[k])
		}
		if ok && json.Unmarshal(op.body, &ack) == nil && (k >= 0 || ack.ID != "") {
			if k < 0 {
				path = "/v1/session/" + ack.ID
			}
			run.digests = append(run.digests, ack.Digest)
			if ok = do(&op, "session_solve", "POST", path+"/solve", nil); ok {
				run.final = op.body
			}
		} else if op.err == nil && op.status/100 == 2 {
			op.status = 0 // an acknowledgement the client cannot read
		}
		op.body = nil // checked through run; keeping it would grow with the rate
		ops = append(ops, op)
		if !ok {
			break
		}
		run.done = k == len(sc.steps)-1
	}
	if path != "" {
		last := &ops[len(ops)-1]
		if !do(last, "session_delete", "DELETE", path, nil) {
			run.done = false
		}
	}
	return ops, run
}

// churn runs the closed loop: every client plays scripts from a shared
// counter, one operation at a time, until d is up.
func (b *sessionBench) churn(d time.Duration, tr *tracer) ([]result, []sessionRun, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var ops []result
	var runs []sessionRun
	start := time.Now()
	stop := func() bool { return time.Since(start) >= d }
	var wg sync.WaitGroup
	for w := 0; w < b.cfg.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop() {
				i := int(next.Add(1)-1) % len(b.scripts)
				o, run := b.play(b.scripts[i], i, tr, stop)
				mu.Lock()
				ops = append(ops, o...)
				runs = append(runs, run)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops, runs, time.Since(start)
}

func (b *sessionBench) run(d time.Duration) (*outcome, error) {
	ops, runs, elapsed := b.churn(d, nil)
	o := &outcome{}
	o.addPhase(phaseOf("closed", ops, elapsed))
	o.tput = throughput(ops)
	o.lat = latencies(ops)
	b.check(o, runs)
	o.costRatio = 1 // every final solve checked equal to ScheduleAll's
	return o, nil
}

// check compares every acked digest with the client's own copy of the
// instance, and each finished session's final solve with a from-scratch
// sched.ScheduleAll of its instance.
func (b *sessionBench) check(o *outcome, runs []sessionRun) {
	for _, run := range runs {
		sc := b.scripts[run.script]
		var final service.InstanceSpec
		sc.states(func(k int, spec service.InstanceSpec) {
			if k+1 < len(run.digests) && run.digests[k+1] != service.InstanceDigest(spec) {
				o.mismatch("script %d step %d: digest %s, client copy %s", run.script, k, run.digests[k+1], service.InstanceDigest(spec))
			}
			final = spec
		})
		if !run.done {
			continue
		}
		want, err := referenceSolve(final)
		if err != nil {
			o.mismatch("script %d reference: %v", run.script, err)
			continue
		}
		got, err := decodeAnswer(run.final, len(final.Jobs))
		if err == nil {
			err = got.SameAs(want)
		}
		if err != nil {
			o.mismatch("script %d final solve: %v", run.script, err)
		}
	}
}

// referenceSolve is a from-scratch sched.ScheduleAll of a wire instance.
func referenceSolve(spec service.InstanceSpec) (*sched.Schedule, error) {
	req, err := service.BuildRequest(spec)
	if err != nil {
		return nil, err
	}
	return sched.ScheduleAll(req.Instance, req.Opts)
}
