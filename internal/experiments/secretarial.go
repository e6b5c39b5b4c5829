package experiments

import (
	"math"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/matroid"
	"repro/internal/secretary"
	"repro/internal/stats"
	"repro/internal/submodular"
	"repro/internal/workload"
)

// E5 measures the classical 1/e rule: hire-the-best probability converges
// to 1/e, as does the walk-away probability.
func E5(cfg Config) *stats.Table {
	tbl := stats.NewTable("E5 — classical secretary: P[hire best] → 1/e",
		"n", "P[hire best]", "P[no hire]", "1/e")
	trials := pick(cfg, 4000, 800)
	for _, n := range []int{10, 50, 200} {
		hits := make([]float64, trials)
		walks := make([]float64, trials)
		parTrials(trials, cfg.Seed+int64(n), func(trial int, rng *rand.Rand) {
			perm := rng.Perm(n)
			values := make([]float64, n)
			bestPos := 0
			for pos, item := range perm {
				values[pos] = float64(item)
				if item == n-1 {
					bestPos = pos
				}
			}
			switch secretary.Classical(values) {
			case bestPos:
				hits[trial] = 1
			case -1:
				walks[trial] = 1
			}
		})
		tbl.AddRow(n, stats.Mean(hits), stats.Mean(walks), 1/math.E)
	}
	tbl.Note = "Shape check: both probabilities hover near 1/e ≈ 0.3679 for large n."
	return tbl
}

// E6 measures Algorithm 1 on monotone streams (coverage and facility
// location) against the offline (1−1/e) greedy, with Theorem 3.2.5's
// proven constant alongside.
func E6(cfg Config) *stats.Table {
	tbl := stats.NewTable("E6 — Theorem 3.2.5: monotone submodular secretary",
		"function", "k", "E[f(T)]/greedy", "proven bound (1-1/e)/7e")
	trials := pick(cfg, 300, 60)
	bound := (1 - 1/math.E) / (7 * math.E)
	for _, k := range []int{4, 8, 16} {
		for _, kind := range []string{"coverage", "facility"} {
			setupRng := rand.New(rand.NewSource(cfg.Seed + int64(k)))
			var f submodular.Function
			if kind == "coverage" {
				f = workload.Coverage(setupRng, 48, 96, 0.15)
			} else {
				f = workload.FacilityLocation(setupRng, 40, 48)
			}
			opt := f.Eval(secretary.OfflineGreedyCardinality(f, k))
			vals := make([]float64, trials)
			parTrials(trials, cfg.Seed+int64(k)*31, func(trial int, rng *rand.Rand) {
				picked := secretary.MonotoneSubmodular(f, rng.Perm(48), k)
				vals[trial] = f.Eval(picked)
			})
			tbl.AddRow(kind, k, stats.Mean(vals)/opt, bound)
		}
	}
	tbl.Note = "Shape check: measured ratios sit far above the proof's worst-case constant ≈ 0.0332 and stay stable in k."
	return tbl
}

// E7 measures Algorithm 2 on non-monotone cut functions against the exact
// optimum (brute force), with the 8e² constant alongside.
func E7(cfg Config) *stats.Table {
	tbl := stats.NewTable("E7 — Theorem 3.2.8: non-monotone submodular secretary (8e²)",
		"n", "k", "E[f(T)]/OPT", "proven bound 1/8e²")
	trials := pick(cfg, 400, 80)
	for _, n := range []int{12, 16} {
		k := n / 4
		setupRng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		cut := workload.Cut(setupRng, n, 0.35)
		_, opt := secretary.BruteForceMax(cut, k, nil)
		if opt <= 0 {
			continue
		}
		vals := make([]float64, trials)
		parTrials(trials, cfg.Seed+int64(n)*17, func(trial int, rng *rand.Rand) {
			picked := secretary.Submodular(cut, rng.Perm(n), k, rng)
			vals[trial] = cut.Eval(picked)
		})
		tbl.AddRow(n, k, stats.Mean(vals)/opt, 1/(8*math.E*math.E))
	}
	tbl.Note = "Shape check: ratio ≫ 1/8e² ≈ 0.0169; OPT here is exact (brute force)."
	return tbl
}

// E8 measures Algorithm 3 across matroid ranks: the competitive ratio
// degrades no faster than 1/log²r, i.e. ratio·log²r stays bounded.
func E8(cfg Config) *stats.Table {
	tbl := stats.NewTable("E8 — Theorem 3.1.2: matroid submodular secretary",
		"matroid", "rank r", "E[f(T)]/greedy", "ratio·log2²r", "independent (frac)")
	trials := pick(cfg, 300, 60)
	for _, r := range []int{4, 8, 16} {
		nItems := 4 * r
		setupRng := rand.New(rand.NewSource(cfg.Seed + int64(r)))
		f := workload.Coverage(setupRng, nItems, 2*nItems, 0.15)
		class := make([]int, nItems)
		for i := range class {
			class[i] = i % r
		}
		caps := make([]int, r)
		for i := range caps {
			caps[i] = 1
		}
		constraints := matroid.NewIntersection(matroid.NewPartition(class, caps))
		opt := f.Eval(secretary.OfflineGreedyMatroid(f, constraints))
		vals := make([]float64, trials)
		indep := make([]float64, trials)
		parTrials(trials, cfg.Seed+int64(r)*13, func(trial int, rng *rand.Rand) {
			picked := secretary.MatroidSubmodular(f, constraints, rng.Perm(nItems), rng)
			vals[trial] = f.Eval(picked)
			if constraints.Independent(picked) {
				indep[trial] = 1
			}
		})
		ratio := stats.Mean(vals) / opt
		lg := math.Log2(float64(r)) + 1
		tbl.AddRow("partition", r, ratio, ratio*lg*lg, stats.Mean(indep))
	}
	// Graphic matroid row: spanning-forest constraint on a random graph.
	{
		setupRng := rand.New(rand.NewSource(cfg.Seed + 99))
		vertices := 10
		var ends [][2]int
		for i := 0; i < vertices; i++ {
			for j := i + 1; j < vertices; j++ {
				if setupRng.Intn(2) == 0 {
					ends = append(ends, [2]int{i, j})
				}
			}
		}
		g := matroid.NewGraphic(vertices, ends)
		constraints := matroid.NewIntersection(g)
		r := constraints.MaxRank()
		weights := make([]float64, len(ends))
		for i := range weights {
			weights[i] = setupRng.Float64() * 10
		}
		f := &submodular.Modular{Weights: weights}
		opt := f.Eval(secretary.OfflineGreedyMatroid(f, constraints))
		vals := make([]float64, trials)
		indep := make([]float64, trials)
		parTrials(trials, cfg.Seed+101, func(trial int, rng *rand.Rand) {
			picked := secretary.MatroidSubmodular(f, constraints, rng.Perm(len(ends)), rng)
			vals[trial] = f.Eval(picked)
			if constraints.Independent(picked) {
				indep[trial] = 1
			}
		})
		ratio := stats.Mean(vals) / opt
		lg := math.Log2(float64(r)) + 1
		tbl.AddRow("graphic", r, ratio, ratio*lg*lg, stats.Mean(indep))
	}
	tbl.Note = "Shape check: every output independent; ratio·log²r roughly flat across ranks (the bound's shape), ratio ≫ the O(1/log²r) floor."
	return tbl
}

// E9 measures the knapsack secretary across the number of knapsacks l:
// ratio·l stays roughly flat (the O(l) shape).
func E9(cfg Config) *stats.Table {
	tbl := stats.NewTable("E9 — Theorem 3.1.3: knapsack submodular secretary",
		"l knapsacks", "E[f(T)]/offline", "ratio·l", "feasible (frac)")
	trials := pick(cfg, 300, 60)
	nItems := 30
	for _, l := range []int{1, 2, 4} {
		setupRng := rand.New(rand.NewSource(cfg.Seed + int64(l)))
		f := workload.Coverage(setupRng, nItems, 60, 0.15)
		weights := make([][]float64, l)
		caps := make([]float64, l)
		for i := 0; i < l; i++ {
			weights[i] = make([]float64, nItems)
			for j := range weights[i] {
				weights[i][j] = 0.1 + setupRng.Float64()*0.4
			}
			caps[i] = 1 + setupRng.Float64()
		}
		offline := offlineKnapsackComparator(f, weights, caps)
		vals := make([]float64, trials)
		feas := make([]float64, trials)
		parTrials(trials, cfg.Seed+int64(l)*29, func(trial int, rng *rand.Rand) {
			picked := secretary.Knapsack(f, weights, caps, rng.Perm(nItems), rng)
			vals[trial] = f.Eval(picked)
			if secretary.FeasibleForKnapsacks(picked, weights, caps) {
				feas[trial] = 1
			}
		})
		ratio := stats.Mean(vals) / offline
		tbl.AddRow(l, ratio, ratio*float64(l), stats.Mean(feas))
	}
	tbl.Note = "Shape check: feasibility holds in every trial; ratio decays no faster than 1/l (ratio·l flat-to-growing)."
	return tbl
}

// offlineKnapsackComparator greedily packs by density offline under all
// knapsacks simultaneously — the denominator for E9's ratios.
func offlineKnapsackComparator(f submodular.Function, weights [][]float64, caps []float64) float64 {
	n := f.Universe()
	sel := bitset.New(n)
	fSel := f.Eval(sel)
	loads := make([]float64, len(caps))
	for {
		best, bestD, bestV := -1, 0.0, 0.0
		for j := 0; j < n; j++ {
			if sel.Contains(j) {
				continue
			}
			fits := true
			wMax := 0.0
			for i := range caps {
				if loads[i]+weights[i][j] > caps[i] {
					fits = false
					break
				}
				if frac := weights[i][j] / caps[i]; frac > wMax {
					wMax = frac
				}
			}
			if !fits {
				continue
			}
			sel.Add(j)
			v := f.Eval(sel)
			sel.Remove(j)
			if d := (v - fSel) / math.Max(wMax, 1e-9); d > bestD {
				best, bestD, bestV = j, d, v
			}
		}
		if best == -1 {
			break
		}
		sel.Add(best)
		fSel = bestV
		for i := range caps {
			loads[i] += weights[i][best]
		}
	}
	return fSel
}

// E10 measures the subadditive algorithm's O(√n) shape and the hardness
// oracle's silence under polynomial probing.
func E10(cfg Config) *stats.Table {
	tbl := stats.NewTable("E10 — Theorem 3.1.4/3.5.1: subadditive secretary & hidden-set hardness",
		"n", "k=√n", "E[f(T)]/OPT", "ratio·√n", "oracle leaks (of 2000 probes)")
	trials := pick(cfg, 400, 80)
	for _, n := range []int{25, 100, 400} {
		k := int(math.Sqrt(float64(n)))
		setupRng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = setupRng.Float64() * 10
		}
		f := &submodular.Modular{Weights: weights}
		// OPT for modular under |S| ≤ k: the top-k weights.
		sorted := append([]float64(nil), weights...)
		opt := 0.0
		for i := 0; i < k; i++ {
			maxJ := i
			for j := i + 1; j < n; j++ {
				if sorted[j] > sorted[maxJ] {
					maxJ = j
				}
			}
			sorted[i], sorted[maxJ] = sorted[maxJ], sorted[i]
			opt += sorted[i]
		}
		vals := make([]float64, trials)
		parTrials(trials, cfg.Seed+int64(n)*41, func(trial int, rng *rand.Rand) {
			picked := secretary.Subadditive(f, rng.Perm(n), k, rng)
			vals[trial] = f.Eval(picked)
		})
		// Hardness probe: 2000 random bounded queries against the planted
		// oracle; count answers above 1.
		h := secretary.NewHiddenSet(setupRng, 900, 30, 30, 8)
		leaks := 0
		for q := 0; q < 2000; q++ {
			s := bitset.New(900)
			for j := 0; j < 1+setupRng.Intn(30); j++ {
				s.Add(setupRng.Intn(900))
			}
			if h.Eval(s) > 1 {
				leaks++
			}
		}
		ratio := stats.Mean(vals) / opt
		tbl.AddRow(n, k, ratio, ratio*math.Sqrt(float64(n)), leaks)
	}
	tbl.Note = "Shape check: ratio·√n stays bounded (the O(√n) guarantee); the hidden-set oracle answers 1 on essentially all polynomially many probes, so no algorithm can find S* (Theorem 3.5.1)."
	return tbl
}

// E11 measures the bottleneck rule: probability of employing exactly the k
// best vs the e^{-2k}-ish guarantee.
func E11(cfg Config) *stats.Table {
	tbl := stats.NewTable("E11 — Theorem 3.6.1: bottleneck (min) secretary",
		"k", "P[hire k best]", "bound 1/e^{2k}")
	trials := pick(cfg, 6000, 1200)
	n := 40
	for _, k := range []int{1, 2, 3} {
		hits := make([]float64, trials)
		parTrials(trials, cfg.Seed+int64(k), func(trial int, rng *rand.Rand) {
			perm := rng.Perm(n)
			values := make([]float64, n)
			for pos, item := range perm {
				values[pos] = float64(item)
			}
			hired := secretary.BottleneckMin(values, k)
			if len(hired) != k {
				return
			}
			want := map[float64]bool{}
			for i := 0; i < k; i++ {
				want[float64(n-1-i)] = true
			}
			for _, pos := range hired {
				if !want[values[pos]] {
					return
				}
			}
			hits[trial] = 1
		})
		tbl.AddRow(k, stats.Mean(hits), math.Exp(-2*float64(k)))
	}
	tbl.Note = "Shape check: measured probability exceeds the 1/e^{2k} floor at every k and decays with k as the theorem predicts."
	return tbl
}
