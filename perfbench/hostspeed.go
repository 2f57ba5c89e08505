package main

// Host-speed scaling. On the shared 2-vCPU KVM guest this benchmark was
// tuned on, two things stretch the wall time of the same work, by a third
// or more, for seconds to minutes at a time:
//
//   - The speed at which a vCPU runs code swings: refLoop at twice its
//     length took between 1.46 and 1.99 ms of its own thread's CPU time
//     within one 30-second run. CPU time follows these swings too.
//   - The host runs other tenants on the guest's vCPUs (steal time, which
//     the guest kernel reports in /proc/stat and leaves out of every
//     task's CPU time). Over four minutes of one set of runs it cut
//     sweep-paper's rows_per_s, scaled for vCPU speed alone, from 10.5 to
//     about 7.
//
// So a sampler runs refLoop every refPeriod on its own locked OS thread
// while the workload runs, timing each loop in that thread's CPU time and
// reading the guest's steal counters. Every end-to-end timing is wall time
// scaled to an undisturbed host: multiplied by the share of the window the
// vCPUs were not stolen, and by refNominal over the median loop time in
// the same window. Keeping both vCPUs busy with other threads does not
// slow the loop, so it measures the host, not the benchmark; it depends on
// nothing in the repository, so no change to the program moves it, and a
// change to the program moves the scaled times as much as the wall times.

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// refNominal is the reference loop's time on an undisturbed vCPU of
	// the tuning host; a scaled second is a wall second at that speed.
	refNominal = 0.75e-3
	// refIters is the reference loop's length.
	refIters = 100_000
	// refPeriod spaces the samples: a loop every 50 ms takes about 1.5% of
	// one CPU, and a unit of a few hundred milliseconds still gets several.
	refPeriod = 50 * time.Millisecond
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPUNow returns the calling OS thread's CPU time.
func threadCPUNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// refMask indexes refTable, the loop's read-only working set: 64 KiB, so
// it stays in the core's private caches like the simulator's hot state.
const refMask = 1<<14 - 1

var refTable = func() (t [refMask + 1]uint32) {
	x := uint32(88172645)
	for i := range t {
		x = x*1664525 + 1013904223
		t[i] = x
	}
	return t
}()

// refSink keeps the reference loop's result live.
var refSink uint32

// refLoop is a fixed amount of integer work — table lookups indexed by a
// xorshift stream, with a data-dependent branch — of the kind the
// simulator's inner loops do.
func refLoop() {
	x, acc := uint32(2463534242), uint32(0)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := refTable[x&refMask]
		if v&1 == 0 {
			acc += v ^ x
		} else {
			acc ^= v + uint32(i)
		}
	}
	refSink = acc
}

// speedSample is one reference-loop timing: its thread CPU seconds, the
// wall instant it ended, and the guest's cumulative steal time per vCPU
// at that instant in seconds (negative when /proc/stat is unreadable).
type speedSample struct {
	at    time.Time
	sec   float64
	steal float64
}

// clockTicks is the unit of /proc/stat's counters (USER_HZ), 100 per
// second on every Linux architecture Go supports.
const clockTicks = 100

// stealSeconds returns the steal time /proc/stat reports, summed over the
// per-vCPU lines and divided by their number, or -1 when it cannot be
// read.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	var sum float64
	cpus := 0
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		f := bytes.Fields(line)
		// cpuN user nice system idle iowait irq softirq steal ...
		if len(f) < 9 || !bytes.HasPrefix(f[0], []byte("cpu")) || len(f[0]) == 3 {
			continue
		}
		v, err := strconv.ParseFloat(string(f[8]), 64)
		if err != nil {
			return -1
		}
		sum += v
		cpus++
	}
	if cpus == 0 {
		return -1
	}
	return sum / float64(cpus) / clockTicks
}

// speedSampler times the reference loop every refPeriod until finished.
type speedSampler struct {
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	samples []speedSample // written by the sampler until done is closed
}

func startSpeedSampler() *speedSampler {
	s := &speedSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(refPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			c := threadCPUNow()
			refLoop()
			sec := (threadCPUNow() - c).Seconds()
			s.samples = append(s.samples, speedSample{time.Now(), sec, stealSeconds()})
		}
	}()
	return s
}

// finish stops the sampler, waits for it to exit, and returns its samples.
// Calls after the first return the same samples.
func (s *speedSampler) finish() []speedSample {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return s.samples
}

// window returns the samples that ended in [from, to]; ss is in time
// order.
func window(ss []speedSample, from, to time.Time) []speedSample {
	i := sort.Search(len(ss), func(k int) bool { return !ss[k].at.Before(from) })
	j := sort.Search(len(ss), func(k int) bool { return ss[k].at.After(to) })
	if i > j {
		i = j
	}
	return ss[i:j]
}

// refMedian returns the median loop time of the samples, or 0 without any.
func refMedian(w []speedSample) float64 {
	xs := make([]float64, len(w))
	for k, s := range w {
		xs[k] = s.sec
	}
	return median(xs)
}

// stealFrac returns the share of the samples' time span that the host
// stole from the guest's vCPUs, or 0 when it cannot tell.
func stealFrac(w []speedSample) float64 {
	if len(w) < 2 {
		return 0
	}
	first, last := w[0], w[len(w)-1]
	span := last.at.Sub(first.at).Seconds()
	if first.steal < 0 || last.steal < 0 || span <= 0 {
		return 0
	}
	f := (last.steal - first.steal) / span
	if f < 0 {
		return 0
	}
	if f > 0.9 {
		return 0.9
	}
	return f
}

// scaleFactor turns wall seconds in the window into scaled seconds: the
// share of the window the vCPUs were not stolen, times refNominal over the
// median loop time. With fewer than two samples in the window it returns
// fallback.
func scaleFactor(ss []speedSample, from, to time.Time, fallback float64) float64 {
	w := window(ss, from, to)
	if len(w) < 2 {
		return fallback
	}
	return (1 - stealFrac(w)) * refNominal / refMedian(w)
}
