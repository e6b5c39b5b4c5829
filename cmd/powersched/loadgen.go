package main

// The loadgen subcommand: replay a workload.ArrivalTrace against a
// powersched serve or route endpoint at a target QPS and report latency
// percentiles. Each request posts the instance revealed by one trace
// prefix to /v1/schedule, so the stream mixes fresh solves (growing
// prefixes) with digest-cache hits (repeated laps over the trace) the
// way a rolling-horizon client would. The pacing is open-loop: requests
// launch on schedule regardless of in-flight latency (bounded by
// -concurrency), so a saturated server shows up as latency, not as a
// silently lowered offered rate. Each request's latency runs from its due
// time start + i·interval, not from when it was sent: time spent waiting
// for an in-flight slot counts, so queueing stalls reach the percentiles
// instead of being coordinated away.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// loadgenReport is the JSON output of `powersched loadgen`.
type loadgenReport struct {
	Target      string         `json:"target"`
	Trace       string         `json:"trace"`
	Seed        int64          `json:"seed"`
	Requests    int            `json:"requests"`
	TargetQPS   float64        `json:"target_qps"`
	AchievedQPS float64        `json:"achieved_qps"`
	OK          int            `json:"ok"`
	Errors      int            `json:"errors"`
	ByStatus    map[string]int `json:"by_status"`
	P50Ms       float64        `json:"p50_ms"`
	P90Ms       float64        `json:"p90_ms"`
	P99Ms       float64        `json:"p99_ms"`
	MaxMs       float64        `json:"max_ms"`
}

// traceSpecs turns a trace into the request stream: the wire instance
// revealed by each event prefix. The cost spec mirrors the generators'
// default (affine α=4, rate=1) so the posted instances are exactly the
// instances a simulate run would solve.
func traceSpecs(tr *workload.ArrivalTrace) []service.InstanceSpec {
	specs := make([]service.InstanceSpec, 0, len(tr.Events))
	var jobs []service.JobSpec
	for _, ev := range tr.Events {
		for _, j := range ev.Jobs {
			js := service.JobSpec{Value: j.Value}
			for _, sk := range j.Allowed {
				js.Allowed = append(js.Allowed, service.SlotSpec{Proc: sk.Proc, Time: sk.Time})
			}
			jobs = append(jobs, js)
		}
		if len(jobs) == 0 {
			continue
		}
		specs = append(specs, service.InstanceSpec{
			Procs:   tr.Procs,
			Horizon: tr.Horizon,
			Cost:    service.CostSpec{Model: "affine", Alpha: 4, Rate: 1},
			Jobs:    append([]service.JobSpec(nil), jobs...),
		})
	}
	return specs
}

func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

func loadgenMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	target := fs.String("target", "http://127.0.0.1:8080", "powersched serve or route base URL")
	qps := fs.Float64("qps", 50, "offered request rate")
	requests := fs.Int("requests", 200, "total requests to send")
	concurrency := fs.Int("concurrency", 32, "max in-flight requests (open-loop cap)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	traceKind := fs.String("trace", "poisson", "arrival trace generator: poisson | diurnal | frontloaded")
	seed := fs.Int64("seed", 42, "trace RNG seed")
	procs := fs.Int("procs", 2, "trace processors")
	horizon := fs.Int("horizon", 48, "trace horizon")
	jobs := fs.Int("jobs", 16, "trace jobs")
	window := fs.Int("window", 2, "trace job half-window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *qps <= 0 || *requests <= 0 {
		return fmt.Errorf("loadgen: -qps and -requests must be positive")
	}
	gens := map[string]func(*rand.Rand, workload.TraceParams) *workload.ArrivalTrace{
		"poisson":     workload.PoissonBurstTrace,
		"diurnal":     workload.DiurnalTrace,
		"frontloaded": workload.FrontLoadedTrace,
	}
	gen, ok := gens[*traceKind]
	if !ok {
		return fmt.Errorf("unknown trace %q (want poisson, diurnal, or frontloaded)", *traceKind)
	}
	params := workload.TraceParams{Procs: *procs, Horizon: *horizon, Jobs: *jobs, Window: *window}
	if err := workload.CheckParams(params); err != nil {
		return err
	}
	specs := traceSpecs(gen(rand.New(rand.NewSource(*seed)), params))
	if len(specs) == 0 {
		return fmt.Errorf("loadgen: trace produced no jobs")
	}
	bodies := make([][]byte, len(specs))
	for i, spec := range specs {
		b, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		bodies[i] = b
	}

	client := &http.Client{Timeout: *timeout}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		byStatus  = map[string]int{}
		okCount   int
		errCount  int
	)
	sem := make(chan struct{}, *concurrency)
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / *qps)
	start := time.Now()
	for i := 0; i < *requests; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(body []byte, due time.Time) {
			defer func() { <-sem; wg.Done() }()
			resp, err := client.Post(*target+"/v1/schedule", "application/json", bytes.NewReader(body))
			lat := time.Since(due)
			mu.Lock()
			defer mu.Unlock()
			latencies = append(latencies, lat)
			if err != nil {
				errCount++
				byStatus["transport_error"]++
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			byStatus[fmt.Sprintf("%d", resp.StatusCode)]++
			if resp.StatusCode == http.StatusOK {
				okCount++
			} else {
				errCount++
			}
		}(bodies[i%len(bodies)], due)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	report := loadgenReport{
		Target:      *target,
		Trace:       *traceKind,
		Seed:        *seed,
		Requests:    *requests,
		TargetQPS:   *qps,
		AchievedQPS: float64(*requests) / elapsed.Seconds(),
		OK:          okCount,
		Errors:      errCount,
		ByStatus:    byStatus,
		P50Ms:       percentile(latencies, 0.50),
		P90Ms:       percentile(latencies, 0.90),
		P99Ms:       percentile(latencies, 0.99),
		MaxMs:       percentile(latencies, 1.0),
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
