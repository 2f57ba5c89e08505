package sweep

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"
)

// userCPUSeconds reads the runtime's estimate of the CPU time spent in Go
// user code. The runtime refreshes it only at a garbage collection, so
// the reading forces one first.
func userCPUSeconds() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// BenchmarkSweepJobML runs the whole job a user launches — all five
// models x two benchmarks on mesh4x4, one worker per CPU — as a fresh
// RunJob per iteration, so every iteration pays the ML training its
// workers share. It reports end-to-end rows/s and cpu-util: the user CPU
// seconds the job burned over wall time x GOMAXPROCS, i.e. the share of
// the pool's processors it kept busy.
func BenchmarkSweepJobML(b *testing.B) {
	spec := &Spec{
		Topos:   []string{"mesh4x4"},
		Benches: []string{"fft", "lu"},
		Horizon: 6_000,
		Shards:  1,
	}
	runs, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	cpu0 := userCPUSeconds()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		rep, err := RunJob(spec, filepath.Join(dir, fmt.Sprintf("job%d.jsonl", i)), Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Written != len(runs) {
			b.Fatalf("job wrote %d rows, want %d", rep.Written, len(runs))
		}
	}
	wall := time.Since(t0).Seconds()
	b.StopTimer()
	cpu := userCPUSeconds() - cpu0
	b.ReportMetric(float64(b.N*len(runs))/wall, "rows/s")
	b.ReportMetric(cpu/(wall*float64(runtime.GOMAXPROCS(0))), "cpu-util")
}
