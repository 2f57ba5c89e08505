package obs

import "math/bits"

// HistBuckets is the fixed bucket count of every streaming histogram.
// Buckets are power-of-two wide (log-bucketed): bucket 0 holds exact
// zeros, bucket i (i >= 1) holds values v with 2^(i-1) <= v < 2^i, and
// the last bucket additionally absorbs everything at or above 2^30.
// Thirty-two buckets therefore cover [0, 2^30) exactly — wider than any
// plausible latency or stall duration in base ticks, and wider than the
// fixed-point IBU error range (ErrScale is 2^20, so an error of 1.0 IBU
// lands in bucket 21).
const HistBuckets = 32

// ErrScale is the fixed-point quantization applied to float IBU
// absolute errors before they enter a Hist: the histogram observes
// round(err * ErrScale), so one unit is ~1e-6 IBU and quantiles divide
// back out. Integer quantization keeps the histogram free of float
// accumulation order.
const ErrScale = 1 << 20

// Hist is a fixed-size, log-bucketed streaming histogram. Every field is
// a plain sum, so n equal observations record in one step (ObserveN). The
// zero value is an empty histogram.
type Hist struct {
	Count   int64
	Sum     int64
	Buckets [HistBuckets]int64
}

// Observe records one non-negative value (negative values clamp to 0).
func (h *Hist) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v; it equals n calls to Observe(v).
func (h *Hist) ObserveN(v, n int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v)) // 0 for v==0, i for 2^(i-1) <= v < 2^i
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.Count += n
	h.Sum += v * n
	h.Buckets[b] += n
}

// bucketUpper returns the inclusive upper bound of bucket i (the le=
// boundary the Prometheus exposition renders): 0 for bucket 0, 2^i - 1
// for bucket i >= 1.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(1)<<uint(i) - 1
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1) of the
// observed values: the upper bound of the bucket holding the q·Count-th
// observation, linearly interpolated within the bucket. It returns 0 on
// an empty histogram. The estimate is deterministic — a pure function of
// the bucket counts.
func (h *Hist) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var seen float64
	for i := 0; i < HistBuckets; i++ {
		c := float64(h.Buckets[i])
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo := float64(0)
			if i > 0 {
				lo = float64(int64(1) << uint(i-1))
			}
			hi := float64(bucketUpper(i))
			if c <= 0 {
				return hi
			}
			frac := (rank - seen) / c
			return lo + (hi-lo)*frac
		}
		seen += c
	}
	return float64(bucketUpper(HistBuckets - 1))
}

// HistSnapshot is the JSON-friendly form of a Hist: bucket counts with
// trailing zero buckets trimmed so quiet histograms stay compact in
// sweep rows and the expvar snapshot. It is deterministic for a given
// run configuration.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot converts h to its serializable form (copies the buckets).
func (h *Hist) Snapshot() HistSnapshot {
	n := HistBuckets
	for n > 0 && h.Buckets[n-1] == 0 {
		n--
	}
	s := HistSnapshot{Count: h.Count, Sum: h.Sum}
	if n > 0 {
		s.Buckets = append([]int64(nil), h.Buckets[:n]...)
	}
	return s
}

// Hist reconstructs the full fixed-size histogram from a snapshot (the
// inverse of Snapshot; missing trailing buckets are zero).
func (s *HistSnapshot) Hist() Hist {
	h := Hist{Count: s.Count, Sum: s.Sum}
	copy(h.Buckets[:], s.Buckets)
	return h
}

// clone deep-copies the snapshot (the bucket slice is shared otherwise).
func (s HistSnapshot) clone() HistSnapshot {
	s.Buckets = append([]int64(nil), s.Buckets...)
	return s
}
