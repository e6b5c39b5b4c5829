package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/service"
)

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := tail(durations(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it; want it refused")
	}
	v, err := tail(durations(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if v != 990*time.Millisecond {
		t.Fatalf("p99 of 1..1000 ms = %v, want 990ms", v)
	}
	// Ties at the percentile do not count as beyond it.
	s := durations(1000)
	for i := 985; i < 995; i++ {
		s[i] = 990 * time.Millisecond
	}
	if _, err := tail(s, 0.99); err == nil {
		t.Fatal("only 5 samples lie strictly above a tied p99; want it refused")
	}
	if v, err := tail(durations(30), 0.5); err != nil || v != 15*time.Millisecond {
		t.Fatalf("p50 of 1..30 ms = %v, %v; want 15ms", v, err)
	}
	if _, err := tail(durations(3), 0.5); err == nil {
		t.Fatal("p50 of 3 samples has 1 beyond it; want it refused")
	}
}

func TestSelfTimeOverNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a: counted once
		{Name: "a.1", Parent: 1, Start: 15, End: 20},
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "open", Parent: -1, Start: 5, End: -1},
	}
	want := []time.Duration{100 - 50 - 10, 30 - 5, 30, 5, 30, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	tr := &tracer{spans: spans}
	sum := tr.summary()
	if _, ok := sum["open"]; ok {
		t.Error("an unclosed span must not be summarised")
	}
	if st := sum["root"]; st.Calls != 1 || st.Median != 100 || st.SelfMed != 40 {
		t.Errorf("root summary = %+v", st)
	}
}

func TestOpenLoopChargesDueTime(t *testing.T) {
	ms := time.Millisecond
	var samples []openSample
	for i := 0; i < 100; i++ {
		due := time.Duration(i) * 10 * ms
		samples = append(samples, openSample{due: due, sent: due, done: due + 2*ms})
	}
	// A stall: request 50 goes out 30 ms late, and answers 2 ms later.
	samples[50] = openSample{due: 500 * ms, sent: 530 * ms, done: 532 * ms}
	lat, lateP99, lateMax, err := openLoopReport(samples)
	if err != nil {
		t.Fatal(err)
	}
	if lat[50] != 32*ms || lat[0] != 2*ms {
		t.Errorf("latency from due time = %v, %v; want 32ms, 2ms", lat[50], lat[0])
	}
	if lateMax != 30*ms || lateP99 != 0 {
		t.Errorf("lateness p99 %v max %v; want 0 and 30ms", lateP99, lateMax)
	}
	// A stall early in the phase that the generator recovers from is
	// charged to latency, not held against the run.
	for i := 0; i < 5; i++ {
		samples[i].sent += maxEndLate + ms
	}
	if _, lateP99, _, err := openLoopReport(samples); err != nil || lateP99 != maxEndLate+ms {
		t.Errorf("recovered stall: p99 lateness %v, err %v; want %v and no error", lateP99, err, maxEndLate+ms)
	}
	// Still behind at the end: the generator could not keep the rate.
	samples[len(samples)-1].sent += maxEndLate + ms
	if _, _, _, err := openLoopReport(samples); err == nil {
		t.Error("a generator behind schedule at the end must invalidate the run")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4, 2.5}, [3]float64{1.85, 3.1, 7.15}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.in, i, got, c.want[i])
			}
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "p99 ms", "_lead", "a/b", "x:y"} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name string }       `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range bf.EndToEnd {
		names = append(names, m.Name)
	}
	listed := map[string]string{}
	for _, m := range bf.PerLayer {
		names = append(names, m.Name)
		listed[m.Name] = m.Unit
	}
	for _, n := range names {
		if !validName(n) || seen[n] {
			t.Errorf("name %q invalid or repeated", n)
		}
		seen[n] = true
	}
	// The traced run reports exactly the per-layer metrics listed.
	if len(layerMetrics) != len(listed) {
		t.Errorf("traced run reports %d per-layer metrics, BENCHMARK.json lists %d", len(layerMetrics), len(listed))
	}
	for _, m := range layerMetrics {
		if listed[m.name] != m.unit {
			t.Errorf("%s: unit %q, BENCHMARK.json %q", m.name, m.unit, listed[m.name])
		}
	}
}

// The client's mirror of a session must digest like the service's own
// copy after every mutation, or the session checks would misfire.
func TestScriptMirrorsService(t *testing.T) {
	svc := service.New(service.Config{})
	defer closeService(svc)
	scripts, err := scriptsFrom(genArrivals(3, 3, sessionShape, nil))
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{}
	for i, sc := range scripts {
		id, digest, err := svc.CreateSession(sc.create)
		if err != nil {
			t.Fatal(err)
		}
		sc.states(func(k int, spec service.InstanceSpec) {
			if k >= 0 {
				if digest, err = svc.MutateSession(id, sc.steps[k]); err != nil {
					t.Fatalf("script %d step %d: %v", i, k, err)
				}
				for _, m := range sc.steps[k] {
					ops[m.Op]++
				}
			}
			if want := service.InstanceDigest(spec); digest != want {
				t.Fatalf("script %d step %d: service digest %s, mirror %s", i, k, digest, want)
			}
		})
		if _, err := referenceSolve(sc.create); err != nil {
			t.Fatalf("script %d: %v", i, err)
		}
	}
	for _, op := range []string{"add_job", "advance_horizon", "remove_job", "block"} {
		if ops[op] == 0 {
			t.Errorf("no %s mutation in the scripts", op)
		}
	}
}

func TestWindowedTakesMedianOverWindows(t *testing.T) {
	s := append(append(durations(1000), durations(1000)...), durations(1000)...)
	for i := 1000; i < 2000; i++ {
		s[i] *= 50 // one window of host noise
	}
	v, w, err := windowed(s, 0.99)
	if err != nil || w != 3 || v != 990*time.Millisecond {
		t.Fatalf("windowed p99 = %v over %d windows, %v; want 990ms over 3", v, w, err)
	}
	if _, _, err := windowed(durations(999), 0.99); err == nil {
		t.Fatal("p99 of one window of 999 samples must be refused")
	}
}

func TestFailedOperationsRefuseTheRun(t *testing.T) {
	t0 := time.Now()
	res := []result{
		{at: t0, status: 200, lat: 40 * time.Millisecond},
		{at: t0.Add(time.Millisecond), status: 503, lat: time.Millisecond},
		{at: t0.Add(2 * time.Millisecond), err: os.ErrDeadlineExceeded, lat: 2 * time.Millisecond},
		{at: t0.Add(3 * time.Millisecond), status: 200, lat: 50 * time.Millisecond},
	}
	lat := latencies(res)
	want := []time.Duration{40 * time.Millisecond, math.MaxInt64, math.MaxInt64, 50 * time.Millisecond}
	if len(lat) != len(want) {
		t.Fatalf("latencies = %v, want %v", lat, want)
	}
	for i := range want {
		if lat[i] != want[i] {
			t.Fatalf("latencies = %v, want failures as the longest latency, in send order %v", lat, want)
		}
	}
	o := &outcome{}
	o.addPhase(phaseOf("closed", res, time.Second))
	if rep := o.report(nil); rep.Correct || rep.Failed != 2 || rep.Attempted != 4 {
		t.Fatalf("report = %+v, want incorrect with 2 of 4 failed", rep)
	}
	o = &outcome{}
	o.addPhase(phaseOf("closed", []result{res[0], res[3]}, time.Second))
	if rep := o.report(nil); !rep.Correct || rep.Failed != 0 {
		t.Fatalf("report = %+v, want correct with none failed", rep)
	}
}
