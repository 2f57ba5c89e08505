package obs

// Drift detection: a Page–Hinkley sequential change test over the
// per-epoch folded mean absolute prediction error (Epoch.PredAbsErr).
// The paper trains its Ridge IBU predictor offline and freezes the
// weights; under nonstationary traffic (phase changes, load swings) a
// frozen model's error mean shifts upward and stays there. Page–Hinkley
// accumulates g += err - mean(err) - Delta and fires when g exceeds
// Lambda — a sustained upward shift integrates into g while stationary
// noise cancels against the running mean. Detection runs only at epoch
// folds on the engine goroutine, so it is deterministic and adds no
// hot-path cost.

// Detector constants (DESIGN.md §5j). Per-epoch error deviations below
// DefaultDriftDelta (IBU) never accumulate; the detector fires when the
// accumulated deviation exceeds DefaultDriftLambda; and it arms only after
// DefaultDriftWarmup epochs with matured predictions, so the running mean
// has a baseline.
const (
	DefaultDriftDelta  = 0.005
	DefaultDriftLambda = 0.05
	DefaultDriftWarmup = 10
)

// driftState is the detector's running state for one run (reset by
// BindRun).
type driftState struct {
	n    int64   // epochs observed since the last reset/fire
	mean float64 // running mean of the observed per-epoch errors
	g    float64 // Page–Hinkley accumulator
}

// observe feeds one epoch's mean absolute prediction error and reports
// whether the detector fired. After a fire the state re-arms from
// scratch so repeated drifts in one run each count.
func (d *driftState) observe(err float64) bool {
	d.n++
	d.mean += (err - d.mean) / float64(d.n)
	d.g += err - d.mean - DefaultDriftDelta
	if d.g < 0 {
		d.g = 0
	}
	if d.n <= DefaultDriftWarmup {
		return false
	}
	if d.g > DefaultDriftLambda {
		*d = driftState{}
		return true
	}
	return false
}
