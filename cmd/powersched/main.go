// Command powersched solves power-scheduling instances given as JSON,
// serves them over HTTP, and simulates online rolling-horizon runs.
//
//	powersched [solve] [flags] [file]   solve one instance (stdin or file) to stdout
//	powersched serve [flags]            long-lived JSON-over-HTTP scheduling service
//	powersched route [flags]            shard-router front end over N serve backends
//	powersched loadgen [flags]          replay an arrival trace at a target QPS
//	powersched simulate [flags]         rolling-horizon engine over a generated arrival trace
//
// Instance schema (shared by solve, /v1/schedule, and /v1/batch entries):
//
//	{
//	  "procs": 2, "horizon": 24,
//	  "cost": {"model": "affine", "alpha": 2, "rate": 1},
//	  "jobs": [{"value": 1, "allowed": [{"proc": 0, "time": 3}, ...]}, ...],
//	  "mode": "all" | "prize" | "prize-exact",
//	  "z": 10.0, "eps": 0.1, "improve": false, "workers": 1
//	}
//
// "z" and "eps" apply to the prize modes only: mode "all" schedules
// every job (or fails with the Hall witness) and always runs Theorem
// 2.2.1's ε = 1/(n+1). "workers" is clamped to GOMAXPROCS.
//
// Cost models: "affine" {alpha, rate}; "perproc" {alphas, rates};
// "timeofuse" {alphas, rates, price}; "superlinear" {alpha, rate, fan,
// exp}; "speedscaled" {wakes, speeds, exp}; "sleepstate" {wake, rate,
// idle}; "composite" {wakes, speeds, exp, price, blocked};
// "unavailable" {base: <model>, blocked: [{proc, time}, ...]}.
//
// Solve flags: -workers sets the greedy's candidate-probe parallelism
// (sharded incremental-oracle replicas; identical schedules at any count,
// the JSON "workers" field wins when set; clamped to GOMAXPROCS).
//
// Serve flags: -addr (default :8080), -workers, -queue, -cache,
// -probe-workers (default per-request greedy parallelism for requests
// whose spec leaves "workers" unset; clamped to GOMAXPROCS). The server drains gracefully on
// SIGINT/SIGTERM: in-flight and queued requests are answered, new ones
// are refused with 503. Session endpoints (/v1/session …) expose the
// mutable solver-session lifecycle. With -state-dir every session is
// journaled to disk (write-ahead, -fsync always|never, compacted every
// -compact-every mutations) and restored on restart — kill -9 included;
// -solve-timeout bounds each solve (503 + Retry-After past it, tuned by
// -retry-after), and GET /metrics exposes Prometheus-text counters.
// -lazy-sessions defers journal replay to first touch per session, so a
// backend with a large shared state dir starts serving immediately.
//
// Route flags: -backends (required, comma-separated serve base URLs),
// -addr, plus the robustness knobs — -request-timeout, -max-attempts,
// -backoff-base/-backoff-cap, -retry-rate/-retry-burst (global retry
// budget), -probe-interval/-eject-after/-readmit-after (health
// hysteresis), -breaker-threshold/-breaker-cooldown (per-backend
// circuit), -retry-after (advertised on 429/503). The router exposes
// the same /v1 surface as serve plus /admin/ring (GET topology,
// POST resize) and its own /stats and /metrics.
//
// Loadgen flags: -target, -qps, -requests, -concurrency, -timeout,
// plus the trace shape (-trace, -seed, -procs, -horizon, -jobs,
// -window). Prints a JSON latency-percentile report.
//
// Simulate flags: -trace poisson|diurnal|frontloaded, -cost
// affine|speedscaled|sleepstate|composite, -procs, -horizon, -jobs,
// -window, -seed, -alpha (wake cost, all models), -rate (per-slot cost;
// read by affine and sleepstate only), -workers. The run is
// deterministic per seed; the JSON report compares the committed online
// schedule against the clairvoyant offline solve of the same trace, and
// for sleep-state models also reports the gap-aware hardware cost of the
// committed intervals (keep-alive vs re-wake priced across gaps).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/online"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/workload"
)

func run(in io.Reader, out io.Writer, workers int) error {
	data, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	req, err := service.DecodeRequest(data)
	if err != nil {
		return err
	}
	if req.Opts.Workers == 0 {
		req.Opts.Workers = workers
	}
	s, err := service.Solve(req)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(service.EncodeSchedule(s))
}

func solveMain(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "greedy probe parallelism (0 = serial; schedules are identical at any count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := io.Reader(os.Stdin)
	if rest := fs.Args(); len(rest) > 0 {
		f, err := os.Open(rest[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	return run(in, os.Stdout, *workers)
}

func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "solver goroutines (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "request queue depth (0 = 4×workers); a full queue blocks submitters")
	cache := fs.Int("cache", 0, "result cache entries (0 = 256, negative disables)")
	probeWorkers := fs.Int("probe-workers", 0, "default per-request greedy parallelism when the spec leaves \"workers\" unset (0 = serial requests)")
	maxSessions := fs.Int("max-sessions", 0, "live solver-session cap (0 = 1024, negative disables sessions)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	stateDir := fs.String("state-dir", "", "durable session state directory (empty = in-memory sessions only)")
	fsync := fs.String("fsync", "", "journal fsync policy: always | never (default always)")
	compactEvery := fs.Int("compact-every", 0, "fold a session journal to a snapshot after this many mutations (0 = 64, negative disables)")
	lazySessions := fs.Bool("lazy-sessions", false, "defer journal replay to first touch per session (needs -state-dir)")
	solveTimeout := fs.Duration("solve-timeout", 60*time.Second, "per-request solve budget; past it the client gets 503 + Retry-After (0 = unbounded)")
	retryAfter := fs.Duration("retry-after", 0, "Retry-After advertised on 429/503 (0 = 1s)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	svc, err := service.Open(service.Config{
		Workers: *workers, QueueDepth: *queue, CacheSize: *cache, ProbeWorkers: *probeWorkers,
		MaxSessions: *maxSessions,
		StateDir:    *stateDir, Fsync: *fsync, CompactEvery: *compactEvery, LazyRestore: *lazySessions,
		SolveTimeout: *solveTimeout, RetryAfter: *retryAfter,
	})
	if err != nil {
		return err
	}
	if *stateDir != "" {
		st := svc.Stats()
		log.Printf("powersched: state dir %s: restored %d sessions, dropped %d corrupt journals",
			*stateDir, st.SessionsRestored, st.JournalsDropped)
	}
	// WriteTimeout must outlast the solve budget, or the server kills
	// responses the service would still have answered within its SLA.
	writeTimeout := time.Duration(0)
	if *solveTimeout > 0 {
		writeTimeout = *solveTimeout + 15*time.Second
	}
	server := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHTTPHandler(svc),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	log.Printf("powersched: serving on %s", *addr)

	select {
	case err := <-errc:
		svc.Close(context.Background())
		return err
	case <-ctx.Done():
	}
	log.Printf("powersched: draining (budget %s)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = server.Shutdown(drainCtx)
	if cerr := svc.Close(drainCtx); err == nil {
		err = cerr
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("drain budget exceeded; abandoning queued requests")
	}
	return err
}

// simulateReport is the JSON output of `powersched simulate`.
type simulateReport struct {
	Trace           string  `json:"trace"`
	Cost            string  `json:"cost_model"`
	Seed            int64   `json:"seed"`
	Procs           int     `json:"procs"`
	Horizon         int     `json:"horizon"`
	Jobs            int     `json:"jobs"`
	Events          int     `json:"events"`
	Solves          int     `json:"solves"`
	Evals           int64   `json:"evals"`
	CommittedCost   float64 `json:"committed_cost"`
	ClairvoyantCost float64 `json:"clairvoyant_cost"`
	CostRatio       float64 `json:"cost_ratio"`
	// CommittedHardware is the schedule-aware price of the committed
	// intervals (power.ScheduleCoster); equals CommittedCost for models
	// without cross-interval effects.
	CommittedHardware float64                `json:"committed_hardware_cost"`
	Served            int                    `json:"served"`
	Missed            int                    `json:"missed"`
	Committed         []service.IntervalSpec `json:"committed_intervals"`
}

// simulateCost builds the -cost model for a simulate run. Heterogeneous
// fleets ramp speeds 1→2 (and wake costs down) across the processors;
// the composite's price curve is the seeded market trace. Each kind
// reads the flags it has a use for: -alpha (wake) everywhere, -rate for
// affine (per-slot cost) and sleepstate (busy rate; idle = rate/2); the
// speed-scaled and composite exponents are fixed (3 and 2). Negative
// flags are input errors — the power constructors would panic on them.
func simulateCost(kind string, procs, horizon int, wake, rate float64, seed int64) (power.CostModel, error) {
	if wake < 0 || rate < 0 {
		return nil, fmt.Errorf("-alpha %g / -rate %g: costs must be >= 0", wake, rate)
	}
	ramp := func() (wakes, speeds []float64) {
		wakes = make([]float64, procs)
		speeds = make([]float64, procs)
		for p := 0; p < procs; p++ {
			frac := 0.0
			if procs > 1 {
				frac = float64(p) / float64(procs-1)
			}
			speeds[p] = 1 + frac
			wakes[p] = wake * (1 - frac/2)
		}
		return wakes, speeds
	}
	switch kind {
	case "affine":
		return power.Affine{Alpha: wake, Rate: rate}, nil
	case "speedscaled":
		wakes, speeds := ramp()
		return power.NewSpeedScaled(wakes, speeds, 3), nil
	case "sleepstate":
		return power.NewSleepState(wake, rate, rate/2), nil
	case "composite":
		wakes, speeds := ramp()
		price := workload.MarketTrace(rand.New(rand.NewSource(seed+1)), horizon)
		return power.NewComposite(wakes, speeds, 2, price).Freeze(), nil
	default:
		return nil, fmt.Errorf("unknown cost model %q (want affine, speedscaled, sleepstate, or composite)", kind)
	}
}

func simulateMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	traceKind := fs.String("trace", "poisson", "arrival trace generator: poisson | diurnal | frontloaded")
	costKind := fs.String("cost", "affine", "cost model: affine | speedscaled | sleepstate | composite")
	seed := fs.Int64("seed", 42, "RNG seed (runs are deterministic per seed)")
	procs := fs.Int("procs", 2, "processors")
	horizon := fs.Int("horizon", 64, "slotted horizon")
	jobs := fs.Int("jobs", 24, "total jobs across the trace")
	window := fs.Int("window", 2, "half-window of each job around its planted slot")
	alpha := fs.Float64("alpha", 4, "wake cost (all cost models)")
	rate := fs.Float64("rate", 1, "per-slot cost (affine and sleepstate; speedscaled/composite derive slot costs from the speed ramp)")
	workers := fs.Int("workers", 0, "greedy probe parallelism inside each re-solve")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := sched.Options{Workers: *workers}
	gens := map[string]func(*rand.Rand, workload.TraceParams) *workload.ArrivalTrace{
		"poisson":     workload.PoissonBurstTrace,
		"diurnal":     workload.DiurnalTrace,
		"frontloaded": workload.FrontLoadedTrace,
	}
	gen, ok := gens[*traceKind]
	if !ok {
		return fmt.Errorf("unknown trace %q (want poisson, diurnal, or frontloaded)", *traceKind)
	}
	cost, err := simulateCost(*costKind, *procs, *horizon, *alpha, *rate, *seed)
	if err != nil {
		return err
	}
	params := workload.TraceParams{
		Procs: *procs, Horizon: *horizon, Jobs: *jobs, Window: *window,
		Cost: cost,
	}
	if err := workload.CheckParams(params); err != nil {
		return err
	}
	tr := gen(rand.New(rand.NewSource(*seed)), params)
	rep, err := online.RunTrace(tr, opts)
	if err != nil {
		return err
	}
	report := simulateReport{
		Trace:           *traceKind,
		Cost:            *costKind,
		Seed:            *seed,
		Procs:           *procs,
		Horizon:         *horizon,
		Jobs:            tr.Jobs(),
		Events:          len(tr.Events),
		Solves:          rep.Solves,
		Evals:           rep.Evals,
		CommittedCost:   rep.CommittedCost,
		ClairvoyantCost: rep.Plan.Cost,
		Served:          rep.Served,
		Missed:          rep.Missed,
	}
	if rep.Plan.Cost > 0 {
		report.CostRatio = rep.CommittedCost / rep.Plan.Cost
	}
	committed := &sched.Schedule{Intervals: rep.CommittedIntervals, Cost: rep.CommittedCost}
	report.CommittedHardware = committed.HardwareCost(tr.FinalInstance())
	for _, iv := range rep.CommittedIntervals {
		report.Committed = append(report.Committed, service.IntervalSpec{
			Proc: iv.Proc, Start: iv.Start, End: iv.End,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "serve":
		err = serveMain(args[1:])
	case len(args) > 0 && args[0] == "route":
		err = routeMain(args[1:])
	case len(args) > 0 && args[0] == "loadgen":
		err = loadgenMain(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "simulate":
		err = simulateMain(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "solve":
		err = solveMain(args[1:])
	default:
		// Bare invocation stays the classic filter: JSON in, JSON out.
		err = solveMain(args)
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "powersched:", err)
		os.Exit(1)
	}
}
