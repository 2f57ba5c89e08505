package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
)

func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var evs []map[string]any
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid JSON line: %v\n%s", err, sc.Text())
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestTracerCoalescesAdjacentSpans: per-tick spans of the same name that
// run back to back must merge into one event; a different name or a gap
// must flush.
func TestTracerCoalescesAdjacentSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, 0)
	tr.BeginRun("test", 2)
	for tick := int64(0); tick < 10; tick++ {
		tr.Span(EngineTrack, "serial-sweep", "below-min-active", tick, 1)
	}
	tr.Span(EngineTrack, "parallel-tick", "", 10, 1) // name change flushes
	tr.Span(EngineTrack, "parallel-tick", "", 12, 1) // gap at 11 flushes
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var spans []map[string]any
	for _, ev := range decodeLines(t, &buf) {
		if ev["ph"] == "X" {
			spans = append(spans, ev)
		}
	}
	if len(spans) != 3 {
		t.Fatalf("expected 3 coalesced spans, got %d: %v", len(spans), spans)
	}
	if spans[0]["name"] != "serial-sweep" || spans[0]["dur"] != float64(10) {
		t.Errorf("first span should cover 10 ticks: %v", spans[0])
	}
	if args, ok := spans[0]["args"].(map[string]any); !ok || args["reason"] != "below-min-active" {
		t.Errorf("serial span lost its reason: %v", spans[0])
	}
	if spans[1]["dur"] != float64(1) || spans[2]["dur"] != float64(1) {
		t.Errorf("non-adjacent spans must not merge: %v", spans[1:])
	}
}

// TestTracerRunsDoNotOverlap: BeginRun must shift the second run's
// events past everything the first emitted.
func TestTracerRunsDoNotOverlap(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, 0)
	tr.BeginRun("first", 1)
	tr.Span(EngineTrack, "sweep-eager", "", 0, 500)
	tr.BeginRun("second", 1)
	tr.Span(EngineTrack, "sweep-eager", "", 0, 5)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var ts []float64
	for _, ev := range decodeLines(t, &buf) {
		if ev["ph"] == "X" {
			ts = append(ts, ev["ts"].(float64))
		}
	}
	if len(ts) != 2 {
		t.Fatalf("expected 2 spans, got %d", len(ts))
	}
	if ts[1] < ts[0]+500 {
		t.Errorf("second run overlaps the first: ts %v", ts)
	}
}

// errWriter fails after n bytes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

// TestTracerStickyError: a write failure surfaces on Flush and the
// tracer keeps accepting (and dropping) events instead of panicking.
func TestTracerStickyError(t *testing.T) {
	tr := NewTracer(&errWriter{n: 16}, 0)
	tr.BeginRun("x", 4)
	for tick := int64(0); tick < 100; tick += 2 {
		tr.Span(EngineTrack, "a", "", tick, 1) // gaps force emission
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("expected the write error to surface on Flush")
	}
}

// TestMetricsFoldTakesReadings: the counts the fold reading carries
// become the totals as given, and the wake-stall histogram is derived
// from the per-mode wake counts.
func TestMetricsFoldTakesReadings(t *testing.T) {
	m := NewMetrics()
	m.BindRun("test", make([]power.Meter, 16), 500, false)
	m.FinishRun(EpochFold{
		Now:           1000,
		ActiveRouters: 2,
		ShardSweeps:   []int64{1, 0},
		Policy: policy.Stats{
			Gatings: 2, Wakes: 3, EpochDecisions: 3,
			WakesByMode:   [power.NumActiveModes]int64{1, 0, 0, 0, 2},
			ModeDecisions: [power.NumActiveModes]int64{1, 0, 0, 0, 2},
		},
		WakeOffTicks:       40,
		LazyTicks:          25,
		ParallelTicks:      1,
		ParallelLandings:   7,
		FastForwardedTicks: 100,
	})
	snap := m.Snapshot()
	if snap.Gatings != 2 || snap.Wakes != 3 || snap.WakeOffTicks != 40 || snap.LazyTicks != 25 {
		t.Errorf("event totals wrong: %+v", snap)
	}
	if snap.EpochDecisions != 3 || snap.DecisionsByMode != [power.NumActiveModes]int64{1, 0, 0, 0, 2} {
		t.Errorf("decision totals wrong: %d %v", snap.EpochDecisions, snap.DecisionsByMode)
	}
	var want Hist
	want.Observe(policy.WakeStallTicks(power.M3))
	want.Observe(policy.WakeStallTicks(power.M7))
	want.Observe(policy.WakeStallTicks(power.M7))
	if !reflect.DeepEqual(snap.WakeStallHist, want.Snapshot()) {
		t.Errorf("wake-stall histogram %+v, want %+v", snap.WakeStallHist, want.Snapshot())
	}
	if snap.FastForwardedTicks != 100 || snap.ParallelTicks != 1 || snap.ParallelLandings != 7 {
		t.Errorf("scheduling counts wrong: %+v", snap)
	}
	if len(snap.ShardSweeps) != 2 || snap.ShardSweeps[0] != 1 || snap.ShardSweeps[1] != 0 {
		t.Errorf("per-shard sweeps wrong: %v", snap.ShardSweeps)
	}
	if snap.Tick != 1000 || snap.Run != 1 {
		t.Errorf("run bookkeeping wrong: %+v", snap)
	}
	// Rebinding resets per-run state but keeps counting runs.
	m.BindRun("again", make([]power.Meter, 4), 500, false)
	if snap := m.Snapshot(); snap.Gatings != 0 || snap.Run != 2 {
		t.Errorf("rebind did not reset: %+v", snap)
	}
}

// TestFoldTotalsAreLatestReading: each fold's cumulative reading
// replaces the totals, so after two folds the snapshot holds the second
// reading.
func TestFoldTotalsAreLatestReading(t *testing.T) {
	m := NewMetrics()
	m.BindRun("totals", make([]power.Meter, 16), 500, false)
	ctrl := policy.NewController(16, policy.Baseline())
	first := EpochFold{
		Now: 500, ShardSweeps: []int64{3, 4}, ShardLoad: []int64{30, 40},
		Policy:    policy.Stats{Gatings: 5, Wakes: 2, ModeSwitches: 1},
		LazyTicks: 11, ParallelTicks: 6, ParallelLandings: 2, FastForwardedTicks: 100, HorizonSkippedTicks: 50,
	}
	second := EpochFold{
		Now: 1000, ShardSweeps: []int64{9, 4}, ShardLoad: []int64{90, 40},
		Policy:    policy.Stats{Gatings: 12, Wakes: 9, ModeSwitches: 4},
		LazyTicks: 30, ParallelTicks: 10, ParallelLandings: 9, FastForwardedTicks: 180, HorizonSkippedTicks: 50,
	}
	m.FoldEpoch(first, ctrl)
	m.FoldEpoch(second, ctrl)
	snap := m.Snapshot()
	if snap.Gatings != 12 || snap.Epochs != 2 || snap.ShardSweeps[0] != 9 || snap.ShardLoad[0] != 90 {
		t.Errorf("totals are not the second reading: %+v", snap)
	}
}

// TestFoldPublishesOnlyWhileServerOpen: with no Server open a fold makes
// no live-snapshot copy, so FoldEpoch on a bound Metrics allocates
// nothing; once StartServer has run, the next fold is visible through
// LiveSnapshot.
func TestFoldPublishesOnlyWhileServerOpen(t *testing.T) {
	const routers = 16
	m := NewMetrics()
	m.BindRun("publish-test", make([]power.Meter, routers), 500, false)
	ctrl := policy.NewController(routers, policy.Baseline())
	f := EpochFold{
		ShardSweeps: []int64{3, 4}, ShardLoad: []int64{30, 40},
		Policy: policy.Stats{Gatings: 1, Wakes: 1, WakesByMode: [power.NumActiveModes]int64{0, 0, 1}},
	}
	fold := func() {
		f.Now += 500
		for r := 0; r < routers; r++ {
			m.EpochDecision(r, 0.3, 0.1, power.M5)
		}
		m.PacketLatency(40)
		m.FoldEpoch(f, ctrl)
	}
	fold()
	fold()
	if n := testing.AllocsPerRun(100, fold); n != 0 {
		t.Fatalf("FoldEpoch with no server open allocates %.0f times per fold, want 0", n)
	}
	if s := LiveSnapshot(); s != nil && s.Label == "publish-test" {
		t.Fatalf("a fold with no server open was published: %+v", s)
	}

	srv, err := StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fold()
	s := LiveSnapshot()
	if s == nil || s.Label != "publish-test" || s.Tick != f.Now || s.Epochs != m.Snapshot().Epochs {
		t.Fatalf("fold after StartServer not published: %+v", s)
	}
}

// TestConcurrentFoldsWhileServersOpenAndClose: folds on several
// goroutines (a sweep's workers, each with its own Metrics) read the open
// server count while servers open and close; run under -race. Once the
// last server has closed and reopened, a fold publishes again.
func TestConcurrentFoldsWhileServersOpenAndClose(t *testing.T) {
	const workers, folds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewMetrics()
			m.BindRun(fmt.Sprintf("worker-%d", w), make([]power.Meter, 4), 500, false)
			ctrl := policy.NewController(4, policy.Baseline())
			for i := 1; i <= folds; i++ {
				m.FoldEpoch(EpochFold{Now: int64(i) * 500, ShardSweeps: []int64{1}}, ctrl)
			}
		}()
	}
	for i := 0; i < 3; i++ {
		srv, err := StartServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		srv.Close() // a second Close must not drop the count below zero
	}
	wg.Wait()

	srv, err := StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := NewMetrics()
	m.BindRun("after-close", make([]power.Meter, 4), 500, false)
	m.FinishRun(EpochFold{Now: 7})
	if s := LiveSnapshot(); s == nil || s.Label != "after-close" {
		t.Fatalf("fold with a server open was not published: %+v", s)
	}
}

// TestServerServesExpvarAndPprof starts the live endpoint on a free
// port and checks /debug/vars carries the published dozznoc snapshot
// and the pprof index answers.
func TestServerServesExpvarAndPprof(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := NewMetrics()
	m.BindRun("endpoint-test", make([]power.Meter, 4), 500, false)
	m.FinishRun(EpochFold{Now: 123, ActiveRouters: 1, ShardSweeps: []int64{1}, FastForwardedTicks: 42})
	client := &http.Client{Timeout: 5 * time.Second}

	resp, err := client.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars: status %d, err %v", resp.StatusCode, err)
	}
	var vars struct {
		Dozznoc *Snapshot `json:"dozznoc"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if vars.Dozznoc == nil || vars.Dozznoc.Label != "endpoint-test" || vars.Dozznoc.FastForwardedTicks != 42 {
		t.Errorf("published snapshot wrong: %+v", vars.Dozznoc)
	}

	resp, err = client.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: status %d, err %v", resp.StatusCode, err)
	}
	if !strings.Contains(string(idx), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}
