package main

import (
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// result is one client operation as the client saw it. Answers are kept
// and checked after the timed phase, so checking never competes with
// the program for CPU.
type result struct {
	at     time.Time // when it was sent
	idx    int       // input index
	status int
	body   []byte
	err    error
	lat    time.Duration
}

func (r result) ok() bool { return r.err == nil && r.status/100 == 2 }

// latencies returns the results' latencies in the order they were sent.
// A failed or refused operation counts as missing any latency limit, so
// it reads as the longest latency possible: a fast refusal must never
// read as a faster program.
func latencies(res []result) []time.Duration {
	s := append([]result(nil), res...)
	sort.Slice(s, func(a, b int) bool { return s[a].at.Before(s[b].at) })
	out := make([]time.Duration, len(s))
	for i, r := range s {
		out[i] = r.lat
		if !r.ok() {
			out[i] = math.MaxInt64
		}
	}
	return out
}

// throughput is the median, over ten equal stretches of the time the
// results span, of the operations answered OK per second in each, so a
// stall of the host in one stretch does not move the run's figure.
func throughput(res []result) float64 {
	const windows = 10
	if len(res) == 0 {
		return 0
	}
	start, end := res[0].at, res[0].at
	for _, r := range res {
		if r.at.Before(start) {
			start = r.at
		}
		if e := r.at.Add(r.lat); e.After(end) {
			end = e
		}
	}
	span := end.Sub(start)
	var counts [windows]float64
	for _, r := range res {
		if r.ok() {
			k := int(float64(r.at.Add(r.lat).Sub(start)) / float64(span) * windows)
			counts[min(k, windows-1)]++
		}
	}
	for k := range counts {
		counts[k] /= span.Seconds() / windows
	}
	return median(counts[:])
}

func timed(c *http.Client, method, url string, body []byte, idx int) result {
	t0 := time.Now()
	status, out, err := call(c, method, url, body)
	return result{at: t0, idx: idx, status: status, body: out, err: err, lat: time.Since(t0)}
}

// phase is one timed stretch of traffic, for the sent/ok/failed record.
type phase struct {
	Name    string  `json:"name"`
	Sent    int     `json:"sent"`
	OK      int     `json:"ok"`
	Failed  int     `json:"failed"`
	Seconds float64 `json:"seconds"`
}

func phaseOf(name string, res []result, elapsed time.Duration) phase {
	p := phase{Name: name, Sent: len(res), Seconds: elapsed.Seconds()}
	for _, r := range res {
		if r.ok() {
			p.OK++
		} else {
			p.Failed++
		}
	}
	return p
}

// runClosed is a closed loop: each of clients goroutines sends input
// 0, 1, 2, ... from a shared counter and sends the next only after the
// previous answer. It stops taking inputs once the phase has lasted d
// and holds at least minN operations (or has lasted maxD), or when limit
// inputs are used. elapsed runs to the last answer.
func runClosed(clients int, d, maxD time.Duration, minN, limit int, send func(i int) result) ([]result, time.Duration) {
	var next atomic.Int64
	start := time.Now()
	stop := func(taken int) bool {
		if taken >= limit {
			return true
		}
		el := time.Since(start)
		return el >= d && (taken >= minN || el >= maxD)
	}
	per := make([][]result, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if stop(i) {
					return
				}
				per[w] = append(per[w], send(i))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []result
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

// runOpen is an open loop at a fixed rate for d: request i is due at
// i/rate after the start, and client i mod clients sends it at its due
// time or as soon as it is free. Latency is timed from the due time.
func runOpen(clients int, rate float64, d time.Duration, send func(i int) result) ([]result, []openSample) {
	n := int(rate * d.Seconds())
	res := make([]result, n)
	samples := make([]openSample, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += clients {
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				res[i] = send(i)
				samples[i] = openSample{due: due, sent: sent, done: time.Since(start)}
			}
		}(w)
	}
	wg.Wait()
	return res, samples
}
