package stats

// Sample statistics for comparing experiment arms: means with Student-t
// confidence intervals and the Mann-Whitney U test, in the style of
// golang.org/x/perf/benchstat (vendored here so the sweep orchestrator's
// arm tables use one significance test instead of a mean-only delta),
// and Paired, the one statistic every speed gate in this repository
// reads (cmd/benchtxt for `make bench-gate`, BenchmarkObsOverhead for
// `make obs-overhead`).

import (
	"fmt"
	"math"
	"sort"
)

// Alpha is the significance threshold shared by every consumer:
// comparisons whose Mann-Whitney p-value exceeds it are reported as
// indistinguishable (printed "~", benchstat-style).
const Alpha = 0.05

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// stdDev returns the sample (n-1) standard deviation.
func stdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// tQuantile95 is the two-sided 95% Student-t quantile for 1..30 degrees
// of freedom; larger samples use the normal 1.960.
var tQuantile95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95 returns the sample mean and the half-width of its 95%
// Student-t confidence interval (0 for fewer than two values).
func MeanCI95(xs []float64) (mean, margin float64) {
	mean = Mean(xs)
	n := len(xs)
	if n < 2 {
		return mean, 0
	}
	t := 1.960
	if df := n - 1; df <= len(tQuantile95) {
		t = tQuantile95[df-1]
	}
	return mean, t * stdDev(xs) / math.Sqrt(float64(n))
}

// UTestResult is the outcome of a two-sided Mann-Whitney U test.
type UTestResult struct {
	N1, N2 int
	U      float64 // the smaller of U1/U2
	P      float64 // two-sided p-value
	Exact  bool    // exact small-sample distribution (no ties) vs normal approximation
}

// maxExactN bounds the exact U distribution: beyond 12 samples per side
// the normal approximation is accurate to well under the Alpha decision
// boundary, and the DP table stops being worth its cost.
const maxExactN = 12

// MannWhitneyUTest performs a two-sided Mann-Whitney (Wilcoxon rank-sum)
// U test of x against y. For small tie-free samples the exact permutation
// distribution is used; otherwise the tie-corrected,
// continuity-corrected normal approximation. Degenerate inputs (an empty
// side, or every observation identical) report p = 1: no evidence of a
// difference.
func MannWhitneyUTest(x, y []float64) UTestResult {
	r := UTestResult{N1: len(x), N2: len(y), P: 1}
	if len(x) == 0 || len(y) == 0 {
		return r
	}

	// Rank the pooled sample with average ranks for ties.
	type obs struct {
		v    float64
		side int // 0 = x, 1 = y
	}
	pool := make([]obs, 0, len(x)+len(y))
	for _, v := range x {
		pool = append(pool, obs{v, 0})
	}
	for _, v := range y {
		pool = append(pool, obs{v, 1})
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].v < pool[j].v })
	ranks := make([]float64, len(pool))
	ties := false
	var tieAdj float64 // sum of t^3 - t over tie groups
	for i := 0; i < len(pool); {
		j := i
		for j < len(pool) && pool[j].v == pool[i].v {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		if t := j - i; t > 1 {
			ties = true
			tieAdj += float64(t*t*t - t)
		}
		i = j
	}

	var r1 float64 // rank sum of x
	for i, o := range pool {
		if o.side == 0 {
			r1 += ranks[i]
		}
	}
	n1, n2 := float64(len(x)), float64(len(y))
	u1 := r1 - n1*(n1+1)/2
	u2 := n1*n2 - u1
	r.U = math.Min(u1, u2)

	if !ties && len(x) <= maxExactN && len(y) <= maxExactN {
		r.Exact = true
		r.P = exactUTwoSided(len(x), len(y), int(r.U+0.5))
		return r
	}

	// Normal approximation with tie correction and 0.5 continuity
	// correction toward the mean.
	n := n1 + n2
	sigma2 := n1 * n2 / 12 * (n + 1 - tieAdj/(n*(n-1)))
	if sigma2 <= 0 {
		return r // every observation identical
	}
	mu := n1 * n2 / 2
	z := (math.Abs(r.U-mu) - 0.5) / math.Sqrt(sigma2)
	if z < 0 {
		z = 0
	}
	r.P = 2 * (1 - normCDF(z))
	if r.P > 1 {
		r.P = 1
	}
	return r
}

// exactUTwoSided returns the exact two-sided p-value P(U <= u)*2 (capped
// at 1) for tie-free samples of size n and m, from the permutation
// distribution of the U statistic.
func exactUTwoSided(n, m, u int) float64 {
	// counts[k] = number of the C(n+m, n) arrangements with U = k,
	// built by the standard recurrence c(n,m,k) = c(n-1,m,k-m) + c(n,m-1,k).
	prev := make([][]int64, m+1) // prev[j] = distribution for (i-1 rows, j)
	for j := 0; j <= m; j++ {
		prev[j] = []int64{1} // c(0, j, 0) = 1
	}
	for i := 1; i <= n; i++ {
		cur := make([][]int64, m+1)
		cur[0] = []int64{1} // c(i, 0, 0) = 1
		for j := 1; j <= m; j++ {
			c := make([]int64, i*j+1)
			for k := range c {
				if k-j >= 0 && k-j < len(prev[j]) {
					c[k] += prev[j][k-j]
				}
				if k < len(cur[j-1]) {
					c[k] += cur[j-1][k]
				}
			}
			cur[j] = c
		}
		prev = cur
	}
	dist := prev[m]
	var cum, total int64
	for k, c := range dist {
		total += c
		if k <= u {
			cum += c
		}
	}
	p := 2 * float64(cum) / float64(total)
	if p > 1 {
		p = 1
	}
	return p
}

// normCDF is the standard normal CDF.
func normCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// Delta compares two samples of one metric (an "old" and a "new" arm):
// means with 95% CIs, the percent change of the mean, and Mann-Whitney
// significance at Alpha.
type Delta struct {
	OldMean, OldMargin float64
	NewMean, NewMargin float64
	Pct                float64 // 100 * (new-old)/old; 0 when old == 0
	U                  UTestResult
	Significant        bool // U.P < Alpha
}

// CompareSamples builds a Delta between two samples.
func CompareSamples(old, new []float64) Delta {
	d := Delta{}
	d.OldMean, d.OldMargin = MeanCI95(old)
	d.NewMean, d.NewMargin = MeanCI95(new)
	if d.OldMean != 0 {
		d.Pct = 100 * (d.NewMean - d.OldMean) / d.OldMean
	}
	d.U = MannWhitneyUTest(old, new)
	d.Significant = d.U.P < Alpha
	return d
}

// PctString renders the percent delta benchstat-style: "~" when the
// Mann-Whitney test cannot distinguish the samples at Alpha, the signed
// percentage otherwise.
func (d Delta) PctString() string {
	if !d.Significant {
		return "~"
	}
	return fmt.Sprintf("%+.2f%%", d.Pct)
}

// PairedResult summarizes a same-host A/B measurement taken as
// alternating base/change pairs. Each pair's ratio change/base cancels
// the drift the host goes through between pairs (other tenants, CPU
// frequency, GC state), which two separate runs of n samples each
// cannot. Median is the gate statistic; Q1 and Q3 show its spread.
type PairedResult struct {
	Pairs          int
	Median, Q1, Q3 float64 // per-pair change/base ratios (1.10 = change 10% slower)
	Wins           int     // pairs in which change ran faster than base
	P              float64 // two-sided Mann-Whitney p of the two samples, unpaired
}

// Paired compares the first n = min(len(base), len(change)) samples of
// two arms pair by pair: pair i is (base[i], change[i]). A pair whose
// base sample is not positive has no ratio and is dropped.
func Paired(base, change []float64) PairedResult {
	n := min(len(base), len(change))
	ratios := make([]float64, 0, n)
	r := PairedResult{}
	for i := 0; i < n; i++ {
		if base[i] <= 0 {
			continue
		}
		ratios = append(ratios, change[i]/base[i])
		if change[i] < base[i] {
			r.Wins++
		}
	}
	r.Pairs = len(ratios)
	r.P = MannWhitneyUTest(base[:n], change[:n]).P
	if r.Pairs == 0 {
		return r
	}
	sort.Float64s(ratios)
	r.Q1, r.Median, r.Q3 = quantile(ratios, 0.25), quantile(ratios, 0.5), quantile(ratios, 0.75)
	return r
}

// Regressed reports whether the median ratio is more than pct percent
// above 1: the change is slower than the base beyond the bound.
func (r PairedResult) Regressed(pct float64) bool { return r.Median > 1+pct/100 }

// quantile linearly interpolates the q-th quantile (0 <= q <= 1) of a
// non-empty sorted sample, so the median of an even count is the mean of
// the middle two.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}
