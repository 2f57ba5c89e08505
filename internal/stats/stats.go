// Package stats provides run statistics utilities: latency percentiles
// and per-epoch time series with CSV export for plotting the paper's
// figures from raw runs.
package stats

import (
	"encoding/csv"
	"io"
	"slices"
	"strconv"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// nearest-rank on a sorted copy. It returns 0 for an empty slice.
func Percentile(values []int64, p float64) int64 {
	if len(values) == 0 {
		return 0
	}
	return nearestRank(sortedCopy(values), p)
}

func sortedCopy(values []int64) []int64 {
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	return sorted
}

// nearestRank reads the p-th percentile off a non-empty sorted slice.
func nearestRank(sorted []int64, p float64) int64 {
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// LatencySummary condenses a latency population.
type LatencySummary struct {
	Count int64
	Mean  float64
	P50   int64
	P95   int64
	P99   int64
	Max   int64
}

// Summarize computes a LatencySummary (values in base ticks).
func Summarize(values []int64) LatencySummary {
	s := LatencySummary{Count: int64(len(values))}
	if len(values) == 0 {
		return s
	}
	var sum int64
	for _, v := range values {
		sum += v
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = float64(sum) / float64(len(values))
	// One sorted copy serves all three ranks.
	sorted := sortedCopy(values)
	s.P50 = nearestRank(sorted, 50)
	s.P95 = nearestRank(sorted, 95)
	s.P99 = nearestRank(sorted, 99)
	return s
}

// EpochSample is one network-wide snapshot taken at an epoch boundary.
type EpochSample struct {
	Tick           int64
	AvgIBU         float64 // network-average input-buffer utilization
	OffRouters     int     // routers power-gated at the boundary
	WakingRouters  int
	ModeRouters    [5]int // active routers per mode M3..M7
	FlitsDelivered int64  // cumulative
	StaticJ        float64
	DynamicJ       float64
}

// Series is a run's per-epoch time series.
type Series struct {
	EpochTicks int64
	Samples    []EpochSample
}

// Add appends a sample.
func (s *Series) Add(e EpochSample) { s.Samples = append(s.Samples, e) }

// WriteCSV exports the series as one row per epoch, suitable for
// regenerating the paper's time-resolved figures with any plotting tool.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	head := []string{"tick", "avg_ibu", "off", "waking", "m3", "m4", "m5", "m6", "m7", "flits", "static_j", "dynamic_j"}
	if err := cw.Write(head); err != nil {
		return err
	}
	for _, e := range s.Samples {
		rec := []string{
			strconv.FormatInt(e.Tick, 10),
			strconv.FormatFloat(e.AvgIBU, 'g', 6, 64),
			strconv.Itoa(e.OffRouters),
			strconv.Itoa(e.WakingRouters),
			strconv.Itoa(e.ModeRouters[0]),
			strconv.Itoa(e.ModeRouters[1]),
			strconv.Itoa(e.ModeRouters[2]),
			strconv.Itoa(e.ModeRouters[3]),
			strconv.Itoa(e.ModeRouters[4]),
			strconv.FormatInt(e.FlitsDelivered, 10),
			strconv.FormatFloat(e.StaticJ, 'e', 6, 64),
			strconv.FormatFloat(e.DynamicJ, 'e', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
