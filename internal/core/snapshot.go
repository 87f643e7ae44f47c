package core

import (
	"fmt"
	"math"

	"fttt/internal/geom"
)

// TargetSnapshot is the portable warm-start state of one tracked
// target — everything a successor tracker over the *same* division
// needs to continue a request sequence byte-identically where the
// original left off (DESIGN.md §16): the warm-start face, the
// two-point estimate history the degradation fallback extrapolates
// from, and the fault scheduler's virtual clock. The scheduler itself
// is a pure deterministic function of (script, seed, max seeked time),
// so its whole state reconstructs from FaultNow alone.
//
// The snapshot deliberately does not carry Byzantine defense state
// (per-node trust, pair evidence): a restored defended target re-learns
// trust from scratch, which degrades detection latency, never
// correctness. Migrating defended sessions byte-identically is a
// documented follow-on.
type TargetSnapshot struct {
	// FaceID is the warm-start face (an index into Division.Faces);
	// -1 when the target has no previous face (cold start).
	FaceID int `json:"faceId"`
	// HistN is how many of the history points below are valid (0..2).
	HistN int `json:"histN,omitempty"`
	// LastX/LastY and PrevX/PrevY are the newest and second-newest
	// final position estimates (the extrapolation history).
	LastX float64 `json:"lastX,omitempty"`
	LastY float64 `json:"lastY,omitempty"`
	PrevX float64 `json:"prevX,omitempty"`
	PrevY float64 `json:"prevY,omitempty"`
	// FaultNow is the fault scheduler's virtual time; 0 when the target
	// has no scheduler (or has never advanced it).
	FaultNow float64 `json:"faultNow,omitempty"`
}

// SnapshotTarget captures the warm-start state of an existing target.
// It errors on unknown targets — callers migrating a session snapshot
// only the targets MultiTracker.Targets reports. The snapshot is taken
// under the target's lock, so it is consistent provided no localization
// for the target is concurrently in flight.
func (m *MultiTracker) SnapshotTarget(targetID string) (TargetSnapshot, error) {
	m.mu.RLock()
	ts, ok := m.targets[targetID]
	m.mu.RUnlock()
	if !ok {
		return TargetSnapshot{}, fmt.Errorf("core: snapshot of unknown target %q", targetID)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tr := ts.tr
	snap := TargetSnapshot{
		FaceID: -1,
		HistN:  tr.histN,
		LastX:  tr.lastPos.X, LastY: tr.lastPos.Y,
		PrevX: tr.prevPos.X, PrevY: tr.prevPos.Y,
	}
	if tr.prev != nil {
		snap.FaceID = tr.prev.ID
	}
	if tr.faults != nil {
		snap.FaultNow = tr.faults.Now()
	}
	return snap, nil
}

// RestoreTarget creates (or overwrites) a target in the snapshot's
// state. The tracker must have been built from the same configuration
// as the snapshot's source — in particular the same division, so the
// face ID resolves to the same face. Restoring then continuing the
// source's request sequence yields estimates byte-identical to never
// having migrated (pinned by TestSnapshotRestoreByteIdentical).
//
// The snapshot is validated in full before anything is written: a
// rejected snapshot leaves an existing target exactly as it was and
// creates no new one.
func (m *MultiTracker) RestoreTarget(targetID string, snap TargetSnapshot) error {
	if err := snap.validate(len(m.Division().Faces)); err != nil {
		return fmt.Errorf("core: restore target %q: %w", targetID, err)
	}
	ts, err := m.target(targetID)
	if err != nil {
		return err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tr := ts.tr
	tr.prev = nil
	if snap.FaceID >= 0 {
		tr.prev = &tr.div.Faces[snap.FaceID]
	}
	tr.histN = snap.HistN
	tr.lastPos = geom.Pt(snap.LastX, snap.LastY)
	tr.prevPos = geom.Pt(snap.PrevX, snap.PrevY)
	if tr.faults != nil && snap.FaultNow > 0 {
		tr.faults.Seek(snap.FaultNow)
	}
	return nil
}

// validate checks a snapshot against a division of faces faces: the
// face must exist (or be -1, a cold start), the history count must be
// 0..2, and every position and the fault clock must be finite.
func (snap TargetSnapshot) validate(faces int) error {
	if snap.FaceID < -1 || snap.FaceID >= faces {
		return fmt.Errorf("face %d out of range [-1,%d)", snap.FaceID, faces)
	}
	if snap.HistN < 0 || snap.HistN > 2 {
		return fmt.Errorf("histN %d out of range [0,2]", snap.HistN)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"lastX", snap.LastX}, {"lastY", snap.LastY}, {"prevX", snap.PrevX}, {"prevY", snap.PrevY}, {"faultNow", snap.FaultNow}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s %v is not finite", f.name, f.v)
		}
	}
	return nil
}
