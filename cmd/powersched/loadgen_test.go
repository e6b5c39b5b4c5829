package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

func TestTraceSpecsArePrefixes(t *testing.T) {
	tr := workload.PoissonBurstTrace(rand.New(rand.NewSource(1)),
		workload.TraceParams{Procs: 2, Horizon: 32, Jobs: 12, Window: 2})
	specs := traceSpecs(tr)
	if len(specs) == 0 {
		t.Fatal("no specs from a 12-job trace")
	}
	last := specs[len(specs)-1]
	if len(last.Jobs) != tr.Jobs() {
		t.Fatalf("final prefix has %d jobs, trace has %d", len(last.Jobs), tr.Jobs())
	}
	prev := 0
	for i, spec := range specs {
		if len(spec.Jobs) <= prev {
			t.Fatalf("spec %d has %d jobs, not more than the previous %d", i, len(spec.Jobs), prev)
		}
		prev = len(spec.Jobs)
		if spec.Procs != tr.Procs || spec.Horizon != tr.Horizon || spec.Cost.Model != "affine" {
			t.Fatalf("spec %d dimensions/cost off: %+v", i, spec)
		}
	}
}

func TestPercentile(t *testing.T) {
	if p := percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %v", p)
	}
	lat := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 10 * time.Millisecond}
	if p := percentile(lat, 0); p != 1 {
		t.Fatalf("p0 = %v, want 1ms", p)
	}
	if p := percentile(lat, 1); p != 10 {
		t.Fatalf("p100 = %v, want 10ms", p)
	}
	if p := percentile(lat, 0.5); p != 2 {
		t.Fatalf("p50 = %v, want 2ms", p)
	}
}

func TestLoadgenMainReplaysTrace(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(service.NewHTTPHandler(svc))
	defer srv.Close()

	var buf bytes.Buffer
	err := loadgenMain([]string{
		"-target", srv.URL, "-qps", "500", "-requests", "20",
		"-jobs", "8", "-horizon", "24", "-seed", "3",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgenReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("loadgen output not valid JSON: %v\n%s", err, buf.String())
	}
	if rep.Requests != 20 || rep.OK != 20 || rep.Errors != 0 {
		t.Fatalf("report counts off: %+v", rep)
	}
	if rep.ByStatus["200"] != 20 {
		t.Fatalf("by_status = %v, want 20 × 200", rep.ByStatus)
	}
	if rep.P50Ms <= 0 || rep.MaxMs < rep.P99Ms || rep.P99Ms < rep.P50Ms {
		t.Fatalf("latency percentiles inconsistent: %+v", rep)
	}
	if rep.AchievedQPS <= 0 {
		t.Fatalf("achieved qps %v", rep.AchievedQPS)
	}
}

// TestLoadgenCountsQueueingDelay pins the latency clock to each
// request's due time: with one in-flight slot and a handler that blocks,
// the second request waits for the first to finish, and that wait must
// show up in its reported latency.
func TestLoadgenCountsQueueingDelay(t *testing.T) {
	const block = 60 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(block)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	var buf bytes.Buffer
	err := loadgenMain([]string{
		"-target", srv.URL, "-qps", "1000", "-requests", "2", "-concurrency", "1",
		"-jobs", "8", "-horizon", "24",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgenReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("loadgen output not valid JSON: %v\n%s", err, buf.String())
	}
	if rep.OK != 2 {
		t.Fatalf("report counts off: %+v", rep)
	}
	// The second request is due 1 ms in, waits ~60 ms for the slot, then
	// takes ~60 ms itself.
	if want := float64(2*block-10*time.Millisecond) / float64(time.Millisecond); rep.MaxMs < want {
		t.Fatalf("slowest latency %.1f ms, want ≥ %.0f ms: the wait for a slot was not counted", rep.MaxMs, want)
	}
}

func TestLoadgenMainRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-qps", "0"},
		{"-requests", "-1"},
		{"-trace", "nope"},
		{"-procs", "-2"},
	}
	for _, args := range cases {
		if err := loadgenMain(args, &buf); err == nil {
			t.Errorf("loadgen %v: accepted", args)
		}
	}
}

func TestRouteMainRejectsBadInput(t *testing.T) {
	if err := routeMain([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("accepted unknown flag")
	}
	if err := routeMain([]string{"-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("accepted an empty -backends list")
	}
	if err := routeMain([]string{"-addr", "127.0.0.1:0", "-backends", " , ,"}); err == nil {
		t.Fatal("accepted a whitespace -backends list")
	}
}

func TestSolveMainReadsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "instance.json")
	input := `{
		"procs": 1, "horizon": 6,
		"cost": {"model": "affine", "alpha": 2, "rate": 1},
		"jobs": [{"allowed": [{"proc": 0, "time": 1}, {"proc": 0, "time": 2}]}]
	}`
	if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	// solveMain writes the schedule to stdout; swap it for a pipe so the
	// test can assert on the JSON.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	solveErr := solveMain([]string{path})
	w.Close()
	os.Stdout = old
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	var out service.ScheduleSpec
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Scheduled != 1 {
		t.Fatalf("scheduled %d, want 1", out.Scheduled)
	}

	if err := solveMain([]string{filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Fatal("accepted a missing input file")
	}
	if err := solveMain([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("accepted unknown flag")
	}
}

func TestSimulateCostKinds(t *testing.T) {
	for _, kind := range []string{"affine", "speedscaled", "sleepstate", "composite"} {
		cost, err := simulateCost(kind, 2, 16, 4, 1, 7)
		if err != nil || cost == nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if c := cost.Cost(0, 0, 2); c <= 0 {
			t.Fatalf("%s prices [0,2) at %v", kind, c)
		}
	}
	if _, err := simulateCost("quantum", 2, 16, 4, 1, 7); err == nil {
		t.Fatal("unknown cost kind accepted")
	}
	if _, err := simulateCost("affine", 2, 16, -1, 1, 7); err == nil {
		t.Fatal("negative wake cost accepted")
	}
}
