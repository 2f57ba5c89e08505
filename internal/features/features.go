// Package features extracts the paper's reduced Table IV feature set per
// router per epoch, used both to harvest training data from the reactive
// models and to generate labels at runtime for the proactive models.
//
// Feature vector (in order):
//
//	0: bias          — the "array of 1's" normalization feature
//	1: reqs_sent     — request packets injected by the cores attached to
//	                   the router during the closing epoch
//	2: reqs_recv     — request packets delivered to the attached cores
//	                   during the closing epoch
//	3: off_time      — the router's cumulative power-gated time as a
//	                   fraction of elapsed simulation time
//	4: ibu           — the closing epoch's average input-buffer
//	                   utilization in [0, 1]
//
// The label predicted from this vector is the *next* epoch's IBU.
package features

import (
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/timing"
	"repro/internal/topology"
)

// Count is the number of features (the paper's reduced set of 5).
const Count = 5

// Indices of the features within a vector.
const (
	Bias = iota
	ReqsSent
	ReqsRecv
	OffTime
	IBU
)

// Names are the column names, aligned with the indices above.
var Names = [Count]string{"bias", "reqs_sent", "reqs_recv", "off_time", "ibu"}

// Extractor computes per-epoch feature vectors. It keeps the previous
// cumulative counters so each call yields per-epoch deltas.
type Extractor struct {
	topo  topology.Topology
	conc  int
	state []routerState
}

// routerState is one router's delta baselines plus the storage its
// feature vector is returned in.
type routerState struct {
	prevSent int64 // cumulative requests sent by the router's cores
	prevRecv int64
	vec      [Count]float64
}

// NewExtractor builds an extractor for a topology.
func NewExtractor(topo topology.Topology) *Extractor {
	return &Extractor{
		topo:  topo,
		conc:  topo.Concentration(),
		state: make([]routerState, topo.NumRouters()),
	}
}

// Collect returns the feature vector of one router at an epoch boundary.
// ibu is the closing epoch's measured utilization; now the current tick.
// Collect must be called exactly once per router per epoch boundary (it
// advances the delta baselines).
//
// The returned vector is owned by the extractor: it stays valid until the
// next Collect for the same router, which overwrites it in place. A
// caller that keeps a vector longer must copy it.
func (e *Extractor) Collect(routerID int, net *network.Network, ctrl *policy.Controller, ibu float64, now timing.Tick) []float64 {
	var sent, recv int64
	c0 := routerID * e.conc
	for lp := 0; lp < e.conc; lp++ {
		sent += net.CoreSentRequests(c0 + lp)
		recv += net.CoreRecvRequests(c0 + lp)
	}
	s := &e.state[routerID]
	dSent := sent - s.prevSent
	dRecv := recv - s.prevRecv
	s.prevSent = sent
	s.prevRecv = recv

	offFrac := 0.0
	if now > 0 {
		offFrac = float64(ctrl.OffTicks(routerID)) / float64(now)
	}
	s.vec = [Count]float64{1, float64(dSent), float64(dRecv), offFrac, ibu}
	return s.vec[:]
}

// Reset clears the delta baselines (for reuse across runs).
func (e *Extractor) Reset() {
	for i := range e.state {
		e.state[i] = routerState{}
	}
}

// FeatureNames labels the reduced vector's columns (sim dataset naming).
func (e *Extractor) FeatureNames() []string { return Names[:] }
