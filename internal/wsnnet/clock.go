package wsnnet

import (
	"fmt"
	"math"

	"fttt/internal/randx"
)

// ClockModel simulates per-mote clocks with offset and drift, plus the
// hop-by-hop beacon synchronization of [28]: the base station broadcasts
// its time, each hop re-stamps with a small jitter, and nodes correct
// their offset to the received value. Between sync rounds the offsets
// drift apart again at each node's drift rate.
//
// Imperfect synchronization matters to FTTT because Def. 3 assumes the
// group's samples are "almost synchronous": a residual offset δ means a
// node samples the target at t+δ, when a target moving at v has shifted
// by v·δ. The SyncAccuracy experiment quantifies how much residual
// offset tracking tolerates.
type ClockModel struct {
	// Offsets[i] is node i's current clock offset in seconds.
	Offsets []float64
	// DriftPPM[i] is node i's crystal drift in parts-per-million.
	DriftPPM []float64
	// HopJitterStd is the per-hop re-stamping error of a sync beacon in
	// seconds (typical MAC-layer timestamping: tens of microseconds).
	HopJitterStd float64

	net *Network
	rng *randx.Stream
	// lastSync is the virtual time of the last Synchronize call.
	lastSync float64
}

// NewClockModel draws per-node initial offsets (uniform ±maxOffset) and
// drifts (uniform ±maxDriftPPM).
func NewClockModel(net *Network, maxOffset, maxDriftPPM, hopJitterStd float64, rng *randx.Stream) (*ClockModel, error) {
	if net == nil || rng == nil {
		return nil, fmt.Errorf("wsnnet: clock model needs a network and an rng")
	}
	if maxOffset < 0 || maxDriftPPM < 0 || hopJitterStd < 0 {
		return nil, fmt.Errorf("wsnnet: negative clock parameter")
	}
	nn := len(net.cfg.Nodes)
	cm := &ClockModel{
		Offsets:      make([]float64, nn),
		DriftPPM:     make([]float64, nn),
		HopJitterStd: hopJitterStd,
		net:          net,
		rng:          rng.Split("clock"),
	}
	for i := 0; i < nn; i++ {
		cm.Offsets[i] = cm.rng.Uniform(-maxOffset, maxOffset)
		cm.DriftPPM[i] = cm.rng.Uniform(-maxDriftPPM, maxDriftPPM)
	}
	return cm, nil
}

// Advance drifts every clock forward by dt seconds of true time.
func (cm *ClockModel) Advance(dt float64) {
	for i := range cm.Offsets {
		cm.Offsets[i] += cm.DriftPPM[i] * 1e-6 * dt
	}
}

// Synchronize runs one beacon flood: every routable node receives the
// base station's time over its greedy path (reversed), accumulating one
// jitter draw per hop, and snaps its offset to the received error.
// Unroutable or dead nodes keep their current offset. It returns the
// post-sync maximum absolute offset among synchronized nodes.
func (cm *ClockModel) Synchronize() float64 {
	worst := 0.0
	for i := range cm.Offsets {
		if !cm.net.Alive[i] {
			continue
		}
		path, ok := cm.net.PathTo(i)
		if !ok {
			continue
		}
		// The beacon traverses the same hops in reverse; each hop adds
		// timestamping jitter.
		err := 0.0
		for range path {
			err += cm.rng.Normal(0, cm.HopJitterStd)
		}
		cm.Offsets[i] = err
		if a := math.Abs(err); a > worst {
			worst = a
		}
	}
	cm.lastSync = cm.net.Engine().Now()
	return worst
}

// MaxAbsOffset returns the current maximum |offset| over alive nodes.
func (cm *ClockModel) MaxAbsOffset() float64 {
	worst := 0.0
	for i, o := range cm.Offsets {
		if !cm.net.Alive[i] {
			continue
		}
		if a := math.Abs(o); a > worst {
			worst = a
		}
	}
	return worst
}
