package obs

import (
	"reflect"
	"testing"
)

// TestHistBucketAssignment pins the log-bucket layout: bucket 0 holds
// exact zeros, bucket i holds [2^(i-1), 2^i), the last bucket absorbs
// everything at or above 2^30, and negatives clamp to zero. ObserveN(v, n)
// must equal n calls to Observe(v) for every such v.
func TestHistBucketAssignment(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {-7, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{1 << 20, 21},
		{1<<30 - 1, 30},
		{1 << 30, HistBuckets - 1},
		{1 << 62, HistBuckets - 1},
	}
	for _, c := range cases {
		var h Hist
		h.Observe(c.v)
		if h.Buckets[c.bucket] != 1 {
			t.Errorf("Observe(%d): buckets %v, want count in bucket %d", c.v, h.Buckets, c.bucket)
		}
		if h.Count != 1 {
			t.Errorf("Observe(%d): count %d", c.v, h.Count)
		}
		for _, n := range []int64{0, 1, 3, 1000} {
			var one, batch Hist
			one.Observe(5) // a prior observation the batch must add to
			batch.Observe(5)
			for i := int64(0); i < n; i++ {
				one.Observe(c.v)
			}
			batch.ObserveN(c.v, n)
			if one != batch {
				t.Errorf("ObserveN(%d, %d) = %+v, want %+v", c.v, n, batch, one)
			}
		}
	}
	var h Hist
	h.Observe(-5)
	if h.Sum != 0 {
		t.Errorf("negative observation leaked into sum: %d", h.Sum)
	}
}

// lands inside its own bucket's bounds.
func TestHistQuantile(t *testing.T) {
	var empty Hist
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	var h Hist
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	last := -1.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < last {
			t.Errorf("quantile not monotone: q=%v -> %v after %v", q, v, last)
		}
		last = v
	}
	if v := h.Quantile(1); v < 512 || v > 1023 {
		t.Errorf("max quantile %v outside the top occupied bucket [512,1023]", v)
	}
	// A point mass at 100 (bucket [64,127]) must estimate within bounds.
	var pm Hist
	for i := 0; i < 10; i++ {
		pm.Observe(100)
	}
	if v := pm.Quantile(0.5); v < 64 || v > 127 {
		t.Errorf("point-mass median %v outside its bucket [64,127]", v)
	}
}

// TestHistSnapshotRoundTrip pins Snapshot/Hist as inverses, trailing-zero
// trimming, and clone independence.
func TestHistSnapshotRoundTrip(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 5, 5, 300} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if len(s.Buckets) != 10 { // 300 lands in bucket 9 ([256,511])
		t.Errorf("trailing zeros not trimmed: %d buckets", len(s.Buckets))
	}
	back := s.Hist()
	if back != h {
		t.Errorf("round trip lost data:\ngot:  %+v\nwant: %+v", back, h)
	}
	c := s.clone()
	c.Buckets[0] = 99
	if s.Buckets[0] == 99 {
		t.Error("clone shares bucket backing with original")
	}
	var zero Hist
	if s := zero.Snapshot(); s.Buckets != nil || s.Count != 0 {
		t.Errorf("empty snapshot not empty: %+v", s)
	}
	zs := zero.Snapshot()
	if !reflect.DeepEqual(zs.Hist(), zero) {
		t.Error("empty round trip differs")
	}
}
