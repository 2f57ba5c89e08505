package obs

import (
	"math/rand"
	"testing"
)

// TestDriftFiresOnShiftOnly: a stationary error stream never trips the
// Page-Hinkley detector; a sustained upward mean shift does.
func TestDriftFiresOnShiftOnly(t *testing.T) {
	var d driftState
	rng := rand.New(rand.NewSource(3))
	noise := func() float64 { return 0.01 + 0.004*rng.Float64() }
	for i := 0; i < 500; i++ {
		if d.observe(noise()) {
			t.Fatalf("detector fired on stationary noise at epoch %d", i)
		}
	}
	fired := false
	for i := 0; i < 50; i++ {
		if d.observe(0.15 + 0.004*rng.Float64()) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("detector never fired on a sustained 0.01 -> 0.15 error shift")
	}
}

// TestDriftWarmup: no fire inside the warmup window even across a huge
// shift, then a fire on the first armed epoch.
func TestDriftWarmup(t *testing.T) {
	var d driftState
	// Shift from 0.01 to 10.0 halfway through the warmup, so the
	// accumulator grows but must not fire yet.
	for i := 0; i < DefaultDriftWarmup; i++ {
		err := 0.01
		if i >= DefaultDriftWarmup/2 {
			err = 10.0
		}
		if d.observe(err) {
			t.Fatalf("fired during warmup at epoch %d", i)
		}
	}
	if !d.observe(10.0) {
		t.Fatal("did not fire on the first armed epoch despite a huge accumulated shift")
	}
}

// TestDriftRearms: after a fire the detector resets and a later sustained
// shift fires again, so repeated drifts in one run each count.
func TestDriftRearms(t *testing.T) {
	var d driftState
	fires := 0
	feed := func(level float64, n int) {
		for i := 0; i < n; i++ {
			if d.observe(level) {
				fires++
			}
		}
	}
	feed(0.01, 20)
	feed(0.2, 30) // first shift
	feed(0.2, 30) // post-fire baseline re-learns at the new level
	feed(0.8, 30) // second shift
	if fires < 2 {
		t.Fatalf("detector fired %d times across two shifts, want >= 2", fires)
	}
}
