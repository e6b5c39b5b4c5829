package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported tail percentile must have
// above it; with fewer the percentile is an extrapolation, not a
// measurement.
const minBeyond = 10

// tail returns the p-quantile (nearest rank) of the samples, refusing it
// when fewer than minBeyond samples lie strictly above it.
func tail(samples []time.Duration, p float64) (time.Duration, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	v := s[idx]
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	if p < 1 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, len(s), beyond, minBeyond)
	}
	return v, nil
}

// windowed splits chronological samples into consecutive windows and
// returns the median over windows of each window's p-quantile, so a
// burst of host noise spoils one window's figure instead of the run's.
// A window holds the fewest samples that leave minBeyond above the
// quantile, and at least 100: 100 for p50, 1000 for p99 (one window when
// there are fewer). Each window's quantile must itself have minBeyond
// samples above it.
func windowed(samples []time.Duration, p float64) (time.Duration, int, error) {
	size := max(100, int(math.Ceil(minBeyond/(1-p))))
	w := max(1, len(samples)/size)
	var vals []float64
	for k := 0; k < w; k++ {
		v, err := tail(samples[k*len(samples)/w:(k+1)*len(samples)/w], p)
		if err != nil {
			return 0, w, err
		}
		vals = append(vals, float64(v))
	}
	return time.Duration(median(vals)), w, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so spreads match the acceptance check exactly.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], median(d), q[2]
}

func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// openSample is one open-loop request: when it was due, when the
// generator actually sent it, and when its answer arrived, each as an
// offset from the phase start.
type openSample struct {
	due, sent, done time.Duration
}

// latency is timed from the due time, so a stall that delays later sends
// is charged to every request it delayed, not hidden in the generator.
func (s openSample) latency() time.Duration { return s.done - s.due }

// lateness is how far behind schedule the generator sent the request.
func (s openSample) lateness() time.Duration { return s.sent - s.due }

// maxEndLate bounds how far behind schedule the generator may end the
// phase. A host stall makes the requests behind it late, which due-time
// latency charges; a generator still late at the end could not keep the
// rate at all, so the run is refused rather than reported.
const maxEndLate = 50 * time.Millisecond

// openLoopReport summarises an open-loop phase: due-time latencies, the
// generator's lateness (p99 and max), and an error when the generator
// ended the phase behind schedule — the median lateness of the last 1%
// of requests above maxEndLate.
func openLoopReport(samples []openSample) (lat []time.Duration, lateP99, lateMax time.Duration, err error) {
	if len(samples) == 0 {
		return nil, 0, 0, fmt.Errorf("open loop sent nothing")
	}
	late := make([]float64, len(samples))
	lat = make([]time.Duration, len(samples))
	for i, s := range samples {
		lat[i], late[i] = s.latency(), float64(s.lateness())
		lateMax = max(lateMax, s.lateness())
	}
	sorted := append([]float64(nil), late...)
	sort.Float64s(sorted)
	lateP99 = time.Duration(sorted[int(math.Ceil(0.99*float64(len(sorted))))-1])
	endLate := time.Duration(median(late[len(late)-max(1, len(late)/100):]))
	if endLate > maxEndLate {
		err = fmt.Errorf("generator fell behind: the last requests went out %v late (limit %v)", endLate, maxEndLate)
	}
	return lat, lateP99, lateMax, err
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(name string) bool { return metricName.MatchString(name) }
