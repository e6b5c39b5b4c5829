// Command perfbench is the repository's benchmark: it generates seeded
// inputs, starts the serving stack in process on loopback, drives one
// named workload and prints every metric by name with its unit. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced run gives the per-layer split. -steady N runs two sets of N
// runs of every workload and compares them. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets up its stack; setup_s is the
// median, and the last stack set up is the one measured.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records where and how a run ran.
type stamp struct {
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Host       string  `json:"host"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	Clients    int     `json:"clients"`
	OpenRPS    float64 `json:"open_rps"`
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace, steady int
	flag.StringVar(&cfg.workload, "workload", "", "cold_solve, trace_replay or session_churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer split instead of the end-to-end run")
	flag.Float64Var(&cfg.openRPS, "open-rps", 1000, "trace_replay open-loop rate, requests/s (BENCHMARK.json passes it)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for state and spans")
	flag.IntVar(&steady, "steady", 0, "run two sets of N runs of every workload in BENCHMARK.json (or of -workload's) and compare them")
	flag.Parse()
	if steady > 0 {
		return steadiness(steady, cfg)
	}
	if cfg.seconds < 1 || cfg.openRPS <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1, -open-rps > 0, -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.clients = runtime.GOMAXPROCS(0)
	st := envStamp(cfg, trace == 1)
	printJSON("stamp", st)

	var rep *report
	var err error
	if trace == 1 {
		rep, err = runTraced(cfg)
	} else {
		rep, err = runE2E(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// setupStack sets the workload up setupReps times and keeps the last.
func setupStack(cfg config, reps int) (bench, float64, error) {
	var times []float64
	var b bench
	for k := 0; k < reps; k++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = setup(cfg); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return b, median(times), nil
}

func runE2E(cfg config) (*report, error) {
	b, setupS, err := setupStack(cfg, setupReps)
	if err != nil {
		return nil, err
	}
	o, err := b.run(time.Duration(cfg.seconds) * time.Second)
	b.close()
	if err != nil {
		return nil, err
	}
	printJSON("phases", o.phases)
	for _, n := range o.notes {
		fmt.Println(n)
	}
	p50, windows, err := windowed(o.lat, 0.50)
	if err != nil {
		return nil, fmt.Errorf("p50_ms: %w", err)
	}
	p99, windows99, err := windowed(o.lat, 0.99)
	if err != nil {
		return nil, fmt.Errorf("p99_ms: %w", err)
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, fmt.Errorf("peak_rss_mb: %w", err)
	}
	if o.costRatio <= 0 || o.costRatio != o.costRatio {
		return nil, fmt.Errorf("cost_ratio: no answer to compare (%v)", o.costRatio)
	}
	m := map[string]metric{
		"setup_s":        {setupS, "s"},
		"p50_ms":         {ms(p50), "ms"},
		"p99_ms":         {ms(p99), "ms"},
		"throughput_rps": {o.tput, "ops/s"},
		"peak_rss_mb":    {rss, "MiB"},
		"cost_ratio":     {o.costRatio, "ratio"},
	}
	fmt.Printf("%-16s %12.4f %-6s (median of %d set-ups)\n", "setup_s", setupS, "s", setupReps)
	fmt.Printf("%-16s %12.4f %-6s (%d samples, median over %d windows)\n", "p50_ms", ms(p50), "ms", len(o.lat), windows)
	fmt.Printf("%-16s %12.4f %-6s (%d samples, median over %d windows, each ≥%d beyond)\n", "p99_ms", ms(p99), "ms", len(o.lat), windows99, minBeyond)
	for _, k := range []string{"throughput_rps", "peak_rss_mb", "cost_ratio"} {
		fmt.Printf("%-16s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("%-16s %12.4f ratio (%d failed or refused, %d wrong, of %d attempted)\n",
		"error_share", float64(o.failed+o.wrong)/float64(max(1, o.attempted)), o.failed, o.wrong, o.attempted)
	return o.report(m), nil
}

// report is the run's result line. Every workload is one on which no
// operation fails, so a failed or refused operation makes the run
// incorrect just as a wrong answer does: a program that sheds load must
// not pass as a faster one.
func (o *outcome) report(m map[string]metric) *report {
	return &report{Correct: o.wrong == 0 && o.failed == 0, Attempted: o.attempted, Failed: o.failed + o.wrong, Metrics: m}
}

// layerMetrics names every per-layer metric with its unit, in report
// order. Each is measured on every workload.
var layerMetrics = []struct{ name, unit string }{
	{"service.decode_ms", "ms"}, {"service.digest_ms", "ms"}, {"service.encode_ms", "ms"},
	{"service.handler_ms", "ms"}, {"service.cache_hit_share", "ratio"},
	{"service.mutate_ms", "ms"}, {"service.session_solve_ms", "ms"}, {"service.fsyncs_per_mutation", "count"},
	{"service.mutate_fsync_never_ms", "ms"}, {"service.errors", "count"},
	{"cluster.hop_ms", "ms"}, {"cluster.retries", "count"}, {"cluster.shed", "count"},
	{"sched.model_build_ms", "ms"}, {"sched.candidates_ms", "ms"}, {"sched.candidates", "count"},
	{"sched.solve_ms", "ms"}, {"sched.session_solve_ms", "ms"}, {"sched.session_evals", "count"},
	{"budget.greedy_ms", "ms"}, {"budget.step_ms", "ms"}, {"budget.evals", "count"},
	{"budget.picks", "count"}, {"budget.picks_per_eval", "ratio"},
	{"bipartite.gain_us", "us"}, {"bipartite.enable_us", "us"}, {"bipartite.hall_ms", "ms"},
	{"submodular.gain_us", "us"}, {"workload.gen_ms", "ms"},
}

func runTraced(cfg config) (*report, error) {
	b, _, err := setupStack(cfg, 1)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	o, lr, err := b.trace(time.Duration(cfg.seconds)*time.Second, tr)
	b.close()
	if err != nil {
		return nil, err
	}
	// Input generation, traced on its own: the per-input cost inside
	// setup_s.
	switch cfg.workload {
	case "cold_solve":
		_, err = genCold(cfg.seed, 200, tr)
	case "trace_replay":
		genArrivals(cfg.seed, 50, replayShape, tr)
	default:
		genArrivals(cfg.seed, 50, sessionShape, tr)
	}
	if err != nil {
		return nil, err
	}
	sum := tr.summary()
	per := func(count, span string) float64 {
		if n := sum[span].Calls; n > 0 {
			return tr.counts[count] / float64(n)
		}
		return 0
	}
	spanMed := func(span string, unit time.Duration) float64 {
		return float64(sum[span].Median) / float64(unit)
	}
	picksPerEval := 0.0
	if e := tr.counts["budget.evals"]; e > 0 {
		picksPerEval = tr.counts["budget.picks"] / e
	}
	values := map[string]float64{
		"service.decode_ms":             spanMed("service.decode", time.Millisecond),
		"service.digest_ms":             spanMed("service.digest", time.Millisecond),
		"service.encode_ms":             spanMed("service.encode", time.Millisecond),
		"service.handler_ms":            spanMed("service.handler", time.Millisecond),
		"service.cache_hit_share":       lr.cacheHitShare,
		"service.mutate_ms":             spanMed("service.mutate", time.Millisecond),
		"service.session_solve_ms":      spanMed("service.session_solve", time.Millisecond),
		"service.fsyncs_per_mutation":   lr.fsyncsPerMut,
		"service.mutate_fsync_never_ms": spanMed("service.mutate_fsync_never", time.Millisecond),
		"service.errors":                lr.errors,
		"cluster.hop_ms":                median(lr.hop),
		"cluster.retries":               lr.retries,
		"cluster.shed":                  lr.sheds,
		"sched.model_build_ms":          spanMed("sched.model_build", time.Millisecond),
		"sched.candidates_ms":           spanMed("sched.candidates", time.Millisecond),
		"sched.candidates":              per("sched.candidates", "sched.candidates"),
		"sched.solve_ms":                spanMed("sched.solve", time.Millisecond),
		"sched.session_solve_ms":        spanMed("sched.session_solve", time.Millisecond),
		"sched.session_evals":           per("sched.session_evals", "sched.session_solve"),
		"budget.greedy_ms":              spanMed("budget.greedy", time.Millisecond),
		"budget.step_ms":                spanMed("budget.step", time.Millisecond),
		"budget.evals":                  per("budget.evals", "budget.greedy"),
		"budget.picks":                  per("budget.picks", "budget.greedy"),
		"budget.picks_per_eval":         picksPerEval,
		"bipartite.gain_us":             spanMed("bipartite.gain", time.Microsecond),
		"bipartite.enable_us":           spanMed("bipartite.enable", time.Microsecond),
		"bipartite.hall_ms":             spanMed("bipartite.hall", time.Millisecond),
		"submodular.gain_us":            spanMed("submodular.gain", time.Microsecond),
		"workload.gen_ms":               spanMed("workload.gen", time.Millisecond),
	}
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		v := values[lm.name]
		if v != v {
			return nil, fmt.Errorf("%s: nothing measured", lm.name)
		}
		m[lm.name] = metric{v, lm.unit}
		fmt.Printf("%-32s %12.4f %s\n", lm.name, v, lm.unit)
	}
	printSpans(sum)
	fmt.Printf("tracing overhead: %+.1f%% (traced vs untraced replay of the same first inputs)\n", 100*lr.overhead)
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	printJSON("phases", o.phases)
	return o.report(m), nil
}

// printSpans prints every span name with its call count, median
// duration and median self time.
func printSpans(sum map[string]spanStat) {
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %8s %12s %12s %12s\n", "span", "calls", "median_ms", "self_med_ms", "self_tot_ms")
	for _, n := range names {
		s := sum[n]
		fmt.Printf("%-30s %8d %12.4f %12.4f %12.2f\n", n, s.Calls, ms(s.Median), ms(s.SelfMed), ms(s.Self))
	}
}

func printJSON(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Printf("%s %s\n", label, b)
}

func envStamp(cfg config, trace bool) stamp {
	host := os.Getenv("BENCH_HOST_LABEL")
	if host == "" {
		host, _ = os.Hostname() // an unknown host stays blank
	}
	return stamp{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: procField("/proc/cpuinfo", "model name"), Host: host,
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace,
		Clients: cfg.clients, OpenRPS: cfg.openRPS,
	}
}

// procField reads the first "key: value" line of a /proc file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSS is the process's VmHWM in MiB.
func peakRSS() (float64, error) {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024, err
}
