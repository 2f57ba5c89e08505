package features

import (
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/timing"
	"repro/internal/topology"
)

// Extended implements the 41-feature set of the original LEAD work that
// the paper's trade-off study (§IV-B1) compares against the reduced
// 5-feature set (DozzNoC-41 vs DozzNoC-5). The exact 41 features of LEAD
// are not enumerated in either paper; this reconstruction follows its
// description — a wide window of local router activity — using the five
// Table IV features plus per-epoch history lags and per-port state:
//
//	 0     bias
//	 1- 2  reqs sent / received this epoch
//	 3     cumulative off-time fraction
//	 4     current epoch IBU
//	 5-12  IBU of the previous 8 epochs
//	13-16  reqs sent, previous 4 epochs
//	17-20  reqs received, previous 4 epochs
//	21     flits forwarded this epoch
//	22-25  flits forwarded, previous 4 epochs
//	26     flits ejected this epoch
//	27-30  flits ejected, previous 4 epochs
//	31     off-time fraction at the previous epoch
//	32     packets queued at the attached cores now
//	33     packets queued at the previous epoch boundary
//	34-37  packets pending toward each cardinal output port now
//	38     wakes so far (per-network, normalized per router)
//	39     gatings so far (per-network, normalized per router)
//	40     epoch index (normalized by 1000)
//
// Feature 0-4 coincide with the reduced set, so a model trained on the
// extended vector restricted to columns 0-4 reproduces DozzNoC-5.
const ExtendedCount = 41

// ExtendedNames lists the 41 column names.
var ExtendedNames = extendedNames()

func extendedNames() []string {
	names := make([]string, 0, ExtendedCount)
	names = append(names, Names[:]...)
	for i := 1; i <= 8; i++ {
		names = append(names, lagName("ibu", i))
	}
	for i := 1; i <= 4; i++ {
		names = append(names, lagName("reqs_sent", i))
	}
	for i := 1; i <= 4; i++ {
		names = append(names, lagName("reqs_recv", i))
	}
	names = append(names, "fwd")
	for i := 1; i <= 4; i++ {
		names = append(names, lagName("fwd", i))
	}
	names = append(names, "eject")
	for i := 1; i <= 4; i++ {
		names = append(names, lagName("eject", i))
	}
	names = append(names,
		"off_time_lag1", "queued", "queued_lag1",
		"pending_n", "pending_e", "pending_s", "pending_w",
		"wakes", "gatings", "epoch_idx",
	)
	return names
}

func lagName(base string, lag int) string {
	return base + "_lag" + string(rune('0'+lag))
}

// routerHist is one router's per-epoch history.
type routerHist struct {
	ibu      [8]float64
	sent     [4]float64
	recv     [4]float64
	fwd      [4]float64
	eject    [4]float64
	offFrac  float64
	queued   float64
	prevFwd  int64
	prevEj   int64
	prevSent int64
	prevRecv int64

	vec [ExtendedCount]float64 // the router's returned feature vector
}

func pushLag(buf []float64, v float64) {
	copy(buf[1:], buf[:len(buf)-1])
	buf[0] = v
}

// ExtendedExtractor computes the 41-feature vector per router per epoch.
type ExtendedExtractor struct {
	topo  topology.Topology
	hist  []routerHist
	epoch int64
}

// NewExtendedExtractor builds the extractor.
func NewExtendedExtractor(topo topology.Topology) *ExtendedExtractor {
	return &ExtendedExtractor{topo: topo, hist: make([]routerHist, topo.NumRouters())}
}

// Count returns ExtendedCount (the extractor's vector width).
func (e *ExtendedExtractor) Count() int { return ExtendedCount }

// Collect returns the extended vector for one router at an epoch boundary
// and advances its history. Call exactly once per router per boundary; the
// shared epoch counter advances when router 0 is collected.
//
// The returned vector is owned by the extractor: it stays valid until the
// next Collect for the same router, which overwrites it in place. A
// caller that keeps a vector longer must copy it.
func (e *ExtendedExtractor) Collect(routerID int, net *network.Network, ctrl *policy.Controller, ibu float64, now timing.Tick) []float64 {
	if routerID == 0 {
		e.epoch++
	}
	h := &e.hist[routerID]
	r := net.Routers[routerID]

	var sent, recv, queued int64
	c0 := routerID * e.topo.Concentration()
	for lp := 0; lp < e.topo.Concentration(); lp++ {
		sent += net.CoreSentRequests(c0 + lp)
		recv += net.CoreRecvRequests(c0 + lp)
		queued += int64(net.QueuedPackets(c0 + lp))
	}
	dSent := float64(sent - h.prevSent)
	dRecv := float64(recv - h.prevRecv)
	dFwd := float64(r.FlitsForwarded() - h.prevFwd)
	dEj := float64(r.FlitsEjected() - h.prevEj)
	h.prevSent, h.prevRecv = sent, recv
	h.prevFwd, h.prevEj = r.FlitsForwarded(), r.FlitsEjected()

	offFrac := 0.0
	if now > 0 {
		offFrac = float64(ctrl.OffTicks(routerID)) / float64(now)
	}
	st := ctrl.Stats()
	nR := float64(len(e.hist))

	v := append(h.vec[:0], 1, dSent, dRecv, offFrac, ibu)
	v = append(v, h.ibu[:]...)
	v = append(v, h.sent[:]...)
	v = append(v, h.recv[:]...)
	v = append(v, dFwd)
	v = append(v, h.fwd[:]...)
	v = append(v, dEj)
	v = append(v, h.eject[:]...)
	v = append(v,
		h.offFrac, float64(queued), h.queued,
	)
	for p := topology.PortNorth(e.topo); p <= topology.PortWest(e.topo); p++ {
		v = append(v, float64(r.PendingToPort(p)))
	}
	v = append(v,
		float64(st.Wakes)/nR,
		float64(st.Gatings)/nR,
		float64(e.epoch)/1000.0,
	)

	// Advance history after building the vector.
	pushLag(h.ibu[:], ibu)
	pushLag(h.sent[:], dSent)
	pushLag(h.recv[:], dRecv)
	pushLag(h.fwd[:], dFwd)
	pushLag(h.eject[:], dEj)
	h.offFrac = offFrac
	h.queued = float64(queued)
	return v
}

// Reset clears all history.
func (e *ExtendedExtractor) Reset() {
	for i := range e.hist {
		e.hist[i] = routerHist{}
	}
	e.epoch = 0
}

// FeatureNames labels the extended vector's columns.
func (e *ExtendedExtractor) FeatureNames() []string { return ExtendedNames }
