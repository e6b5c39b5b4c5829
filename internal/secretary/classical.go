// Package secretary implements the online algorithms of thesis Chapter 3:
// the classical secretary rule, the submodular secretary algorithms
// (monotone and non-monotone), the submodular matroid secretary algorithm,
// the knapsack-constrained variant, the subadditive algorithm with its
// hidden-set hardness oracle, and the bottleneck (min) rule.
//
// All algorithms consume a stream as an arrival permutation: order[pos] is
// the item id arriving at position pos. Decisions are irrevocable — an
// algorithm may inspect only value-oracle queries over items that have
// already arrived, mirroring §3.2.1's oracle convention.
//
// The offline comparators the experiments divide by (offline.go) are
// serial greedy runs: OfflineGreedyCardinality and OfflineGreedyMatroid
// probe through the incremental oracle when the function offers one and
// fall back to plain Eval otherwise.
package secretary

import "math"

// sampleLen returns the observation-phase length ⌊m/e⌋ for a window of m
// arrivals — the classical optimal stopping fraction.
func sampleLen(m int) int {
	return int(math.Floor(float64(m) / math.E))
}

// Classical runs the 1/e-rule on a value stream: observe the first ⌊n/e⌋
// arrivals, then hire the first whose value beats everything observed.
// It returns the arrival position hired, or -1 if no candidate cleared the
// bar (the classical rule walks away empty-handed).
func Classical(values []float64) int {
	n := len(values)
	if n == 0 {
		return -1
	}
	obs := sampleLen(n)
	bar := math.Inf(-1)
	for pos := 0; pos < obs; pos++ {
		if values[pos] > bar {
			bar = values[pos]
		}
	}
	for pos := obs; pos < n; pos++ {
		if values[pos] > bar {
			return pos
		}
	}
	return -1
}

// TopK is the multiple-choice rule used as a modular comparator: split the
// stream into k segments and run the classical rule in each, hiring at
// most one per segment. Returns hired arrival positions.
func TopK(values []float64, k int) []int {
	n := len(values)
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	var hired []int
	l := n / k
	for i := 0; i < k; i++ {
		lo, hi := i*l, (i+1)*l
		if i == k-1 {
			hi = n
		}
		if pos := Classical(values[lo:hi]); pos >= 0 {
			hired = append(hired, lo+pos)
		}
	}
	return hired
}

// BottleneckMin is the 0(k)-competitive rule of Theorem 3.6.1 for the
// min-aggregation objective: interview an initial fraction of the stream,
// set the bar at its maximum, then hire the first k candidates exceeding
// the bar. Returns hired arrival positions (possibly fewer than k).
//
// We observe n/(k+1) arrivals rather than the thesis's "1/k fraction",
// which degenerates at k = 1 (it would observe everyone); the success
// probability f·(1−f)^k at f = 1/(k+1) still dominates the theorem's
// 1/e^{2k} floor for every k.
func BottleneckMin(values []float64, k int) []int {
	n := len(values)
	if k <= 0 || n == 0 {
		return nil
	}
	obs := n / (k + 1)
	if obs >= n {
		obs = n - 1
	}
	bar := math.Inf(-1)
	for pos := 0; pos < obs; pos++ {
		if values[pos] > bar {
			bar = values[pos]
		}
	}
	var hired []int
	for pos := obs; pos < n && len(hired) < k; pos++ {
		if values[pos] > bar {
			hired = append(hired, pos)
		}
	}
	return hired
}
