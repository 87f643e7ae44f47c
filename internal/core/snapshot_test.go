package core

import (
	"math"
	"strings"
	"testing"

	"fttt/internal/faults"
	"fttt/internal/geom"
	"fttt/internal/randx"
)

// snapshotConfig is a fault-heavy fixture: a mass crash plus the
// degradation policy, so the migrated state (warm face, extrapolation
// history, fault clock) all materially change later estimates.
func snapshotConfig(t *testing.T) Config {
	t.Helper()
	script, err := faults.Parse("crash at=0 frac=0.6 recover=4; drift sigma=0.05")
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig(16)
	cfg.StarFractionLimit = 0.4
	cfg.RetryBackoff = 0.5
	cfg.FaultScript = script
	cfg.FaultSeed = 3
	return cfg
}

// snapshotRequests is a deterministic two-target request sequence with
// per-request substreams — the serving layer's stream shape.
func snapshotRequests(n int) []LocalizeRequest {
	root := randx.New(11)
	reqs := make([]LocalizeRequest, 0, 2*n)
	for i := 0; i < n; i++ {
		f := float64(i)
		reqs = append(reqs,
			LocalizeRequest{ID: "alpha", Pos: geom.Pt(20+2*f, 25+f),
				Rng: root.Split("target:alpha").SplitN("req", i)},
			LocalizeRequest{ID: "bravo", Pos: geom.Pt(80-2*f, 70-f),
				Rng: root.Split("target:bravo").SplitN("req", i)},
		)
	}
	return reqs
}

func estimatesEqual(a, b Estimate) bool {
	return math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y) &&
		a.FaceID == b.FaceID &&
		math.Float64bits(a.Similarity) == math.Float64bits(b.Similarity) &&
		a.Reported == b.Reported && a.Stars == b.Stars &&
		a.Flipped == b.Flipped && a.Visited == b.Visited &&
		a.FellBack == b.FellBack && a.Degraded == b.Degraded &&
		a.Retried == b.Retried && a.Extrapolated == b.Extrapolated
}

// TestSnapshotRestoreByteIdentical is the migration determinism
// contract: running a request sequence straight through equals running
// a prefix on one tracker, snapshotting each target, restoring into a
// fresh MultiTracker over an identical config, and continuing there —
// at every possible split point.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	cfg := snapshotConfig(t)
	reqs := snapshotRequests(8)

	ref, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Requests one at a time: each carries its own stream, so this is
	// the canonical serial reference (per-request replay needs fresh
	// streams, hence the rebuild below).
	wantAll := make([]Estimate, len(reqs))
	for i := range reqs {
		ests, err := ref.LocalizeBatch(reqs[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		wantAll[i] = ests[0]
	}

	for split := 0; split <= len(reqs); split += 3 {
		reqs := snapshotRequests(8) // fresh streams per replay
		src, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < split; i++ {
			if _, err := src.LocalizeBatch(reqs[i : i+1]); err != nil {
				t.Fatal(err)
			}
		}
		dst, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range src.Targets() {
			snap, err := src.SnapshotTarget(id)
			if err != nil {
				t.Fatalf("split %d: snapshot %s: %v", split, id, err)
			}
			if err := dst.RestoreTarget(id, snap); err != nil {
				t.Fatalf("split %d: restore %s: %v", split, id, err)
			}
		}
		for i := split; i < len(reqs); i++ {
			ests, err := dst.LocalizeBatch(reqs[i : i+1])
			if err != nil {
				t.Fatal(err)
			}
			if !estimatesEqual(ests[0], wantAll[i]) {
				t.Fatalf("split %d: request %d (%s) diverged after restore:\n got %+v\nwant %+v",
					split, i, reqs[i].ID, ests[0], wantAll[i])
			}
		}
	}
}

// TestSnapshotRestoreFaultClock pins that the restored fault scheduler
// sits at the snapshot's virtual time (the scheduler reconstructs
// deterministically from seeking alone).
func TestSnapshotRestoreFaultClock(t *testing.T) {
	cfg := snapshotConfig(t)
	src, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := snapshotRequests(6)
	for i := range reqs {
		if _, err := src.LocalizeBatch(reqs[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := src.SnapshotTarget("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if snap.FaultNow <= 0 {
		t.Fatalf("FaultNow = %v, want > 0 (retries advanced the clock)", snap.FaultNow)
	}
	dst, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreTarget("alpha", snap); err != nil {
		t.Fatal(err)
	}
	sched, err := dst.FaultScheduler("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Now(); got != snap.FaultNow {
		t.Fatalf("restored fault clock %v, want %v", got, snap.FaultNow)
	}
	srcSched, err := src.FaultScheduler("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Nodes {
		if got, want := sched.Crashed(i), srcSched.Crashed(i); got != want {
			t.Fatalf("restored node %d crashed = %v, want %v", i, got, want)
		}
	}
}

func TestSnapshotErrors(t *testing.T) {
	cfg := defaultConfig(9)
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SnapshotTarget("ghost"); err == nil || !strings.Contains(err.Error(), "unknown target") {
		t.Fatalf("snapshot of unknown target: err = %v", err)
	}
	if err := m.RestoreTarget("a", TargetSnapshot{FaceID: 1 << 30}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("restore with bad face: err = %v", err)
	}
	if err := m.RestoreTarget("a", TargetSnapshot{FaceID: -1, HistN: 7}); err == nil || !strings.Contains(err.Error(), "histN") {
		t.Fatalf("restore with bad histN: err = %v", err)
	}
	// A valid cold snapshot restores cleanly.
	if err := m.RestoreTarget("a", TargetSnapshot{FaceID: -1}); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsWithoutSideEffects pins RestoreTarget's
// validate-then-commit contract, one subtest per rejected field: the
// bad snapshot is refused, the live target it was aimed at localizes
// its next request byte-identically to an untouched twin and snapshots
// identically, and a refused restore of an unknown target creates
// nothing.
func TestRestoreRejectsWithoutSideEffects(t *testing.T) {
	cfg := snapshotConfig(t)
	// Every rejected snapshot is otherwise a valid, different state (a
	// far warm face, full history elsewhere, a later fault clock), so a
	// partial commit of any of it would move the next estimate.
	valid := TargetSnapshot{FaceID: 0, HistN: 2, LastX: 90, LastY: 5, PrevX: 88, PrevY: 7, FaultNow: 6}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*TargetSnapshot, int)
		want string
	}{
		{"FaceIDPastDivision", func(s *TargetSnapshot, faces int) { s.FaceID = faces }, "face"},
		{"FaceIDBelowCold", func(s *TargetSnapshot, _ int) { s.FaceID = -2 }, "face"},
		{"HistNAbove2", func(s *TargetSnapshot, _ int) { s.HistN = 3 }, "histN"},
		{"HistNNegative", func(s *TargetSnapshot, _ int) { s.HistN = -1 }, "histN"},
		{"LastXNaN", func(s *TargetSnapshot, _ int) { s.LastX = nan }, "lastX"},
		{"LastYInf", func(s *TargetSnapshot, _ int) { s.LastY = inf }, "lastY"},
		{"PrevXNegInf", func(s *TargetSnapshot, _ int) { s.PrevX = -inf }, "prevX"},
		{"PrevYNaN", func(s *TargetSnapshot, _ int) { s.PrevY = nan }, "prevY"},
		{"FaultNowNaN", func(s *TargetSnapshot, _ int) { s.FaultNow = nan }, "faultNow"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reqs, twinReqs := snapshotRequests(4), snapshotRequests(4)
			live, err := NewMulti(cfg)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewMulti(cfg)
			if err != nil {
				t.Fatal(err)
			}
			last := len(reqs) - 1
			for i := 0; i < last; i++ {
				if _, err := live.LocalizeBatch(reqs[i : i+1]); err != nil {
					t.Fatal(err)
				}
				if _, err := twin.LocalizeBatch(twinReqs[i : i+1]); err != nil {
					t.Fatal(err)
				}
			}
			id := reqs[last].ID
			bad := valid
			c.edit(&bad, len(live.Division().Faces))
			if err := live.RestoreTarget(id, bad); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("restore %+v: err = %v, want one naming %s", bad, err, c.want)
			}
			if err := live.RestoreTarget("ghost", bad); err == nil {
				t.Fatal("restore of an unknown target accepted the bad snapshot")
			}
			if got, want := live.Targets(), twin.Targets(); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("targets after refused restores %v, want %v", got, want)
			}
			gotSnap, _ := live.SnapshotTarget(id)
			wantSnap, _ := twin.SnapshotTarget(id)
			if gotSnap != wantSnap {
				t.Fatalf("refused restore changed the snapshot: %+v, want %+v", gotSnap, wantSnap)
			}
			got, err := live.LocalizeBatch(reqs[last:])
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.LocalizeBatch(twinReqs[last:])
			if err != nil {
				t.Fatal(err)
			}
			if !estimatesEqual(got[0], want[0]) {
				t.Fatalf("next localize after refused restore:\n got %+v\nwant %+v", got[0], want[0])
			}
		})
	}
}
